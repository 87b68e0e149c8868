(** Target platform descriptions — the information a platform developer
    provides to Beethoven (§II-B "Platform Development"): device kind,
    per-die resources and shell footprint, external memory configuration,
    host-link characteristics, and interconnect elaboration knobs. *)

type kind = Fpga_discrete | Fpga_embedded | Asic | Simulation

type slr = {
  slr_index : int;
  capacity : Resources.t;
  shell : Resources.t;  (** resources pre-consumed by the platform shell *)
}

type host_link = {
  mmio_latency_ps : int;  (** one host MMIO access *)
  dma_bandwidth_gbs : float;  (** host<->device copies (PCIe or on-die) *)
  dma_setup_ps : int;
  shared_address_space : bool;  (** embedded platforms: no copies needed *)
}

type t = {
  name : string;
  kind : kind;
  slrs : slr list;
  fabric_clock_ps : int;
  dram : Dram.Config.t;
  axi : Axi.Params.t;
  noc : Noc.Params.t;
  host : host_link;
  memory_spill_threshold : float;  (** BRAM/URAM spill point (0.8) *)
  sram_library : Sram.macro list option;  (** ASIC platforms only *)
}

val aws_f1 : t
(** Alveo U200 (VU9P, 3 SLRs) on an AWS F1 instance: discrete, PCIe,
    250 MHz fabric, 4-channel DDR4, shell on SLR0/1. *)

val u200 : t
(** Alveo U200 on-prem (XDMA shell): same VU9P die as {!aws_f1} but a
    leaner shell (SLR1 only), a 300 MHz kernel clock, and a local PCIe
    link without the virtualization hop — the second discrete flavor a
    heterogeneous cluster mixes with F1 instances. *)

val kria : t
(** Kria KV260 (Zynq UltraScale+): embedded, shared address space, single
    SLR, one DDR4 channel. *)

val asap7 : t
(** ASIC flow against the ASAP7-class SRAM library, 1 GHz target. *)

val chipkit : t
(** ChipKIT-style test chip: ASAP7 flow with an on-die M0-class host (the
    CPU source is user-provided; only its interface is modelled). *)

val saed32 : t
(** Synopsys educational PDK flow (SAED32-class SRAM macros, 500 MHz). *)

val sim : t
(** Simulation platform: U200-like device, ideal host link. *)

val total_capacity : t -> Resources.t
val total_shell : t -> Resources.t
val slr_exn : t -> int -> slr
val fabric_freq_mhz : t -> float

module Power : sig
  val fpga_watts : Resources.t -> freq_mhz:float -> float
  (** Activity-based FPGA power estimate: static + per-resource dynamic
      term scaled by clock frequency. *)
end
