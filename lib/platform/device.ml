type kind = Fpga_discrete | Fpga_embedded | Asic | Simulation

type slr = {
  slr_index : int;
  capacity : Resources.t;
  shell : Resources.t;
}

type host_link = {
  mmio_latency_ps : int;
  dma_bandwidth_gbs : float;
  dma_setup_ps : int;
  shared_address_space : bool;
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
  memory_spill_threshold : float;
  sram_library : Sram.macro list option;
}

(* VU9P: one of three identical SLRs. *)
let vu9p_slr_capacity =
  Resources.make ~clb:49260 ~lut:394080 ~ff:788160 ~bram:720 ~uram:320
    ~dsp:2280 ()

(* The F1 shell footprint (Table II: Total minus Beethoven partition),
   placed mostly on SLR0 with spill onto SLR1. *)
let f1_shell_slr0 =
  Resources.make ~clb:22000 ~lut:105000 ~ff:145000 ~bram:100 ~uram:30 ()

let f1_shell_slr1 =
  Resources.make ~clb:9000 ~lut:45000 ~ff:61000 ~bram:40 ~uram:13 ()

let aws_f1 =
  {
    name = "AWS F1 (Alveo U200 / VU9P)";
    kind = Fpga_discrete;
    slrs =
      [
        { slr_index = 0; capacity = vu9p_slr_capacity; shell = f1_shell_slr0 };
        { slr_index = 1; capacity = vu9p_slr_capacity; shell = f1_shell_slr1 };
        { slr_index = 2; capacity = vu9p_slr_capacity; shell = Resources.zero };
      ];
    fabric_clock_ps = 4000 (* 250 MHz *);
    dram = Dram.Config.ddr4_2400_quad;
    axi = Axi.Params.aws_f1;
    noc = Noc.Params.default ~clock_ps:4000;
    host =
      {
        mmio_latency_ps = 1_000_000 (* ~1 us PCIe MMIO round trip *);
        dma_bandwidth_gbs = 12.0 (* PCIe gen3 x16 effective *);
        dma_setup_ps = 5_000_000;
        shared_address_space = false;
      };
    memory_spill_threshold = 0.8;
    sram_library = None;
  }

(* The on-prem XDMA shell is much leaner than the F1 shell: static region
   plus the DMA engine on SLR1 only. *)
let u200_shell_slr1 =
  Resources.make ~clb:12000 ~lut:60000 ~ff:90000 ~bram:60 ~uram:20 ()

let u200 =
  {
    aws_f1 with
    name = "Alveo U200 (on-prem, XDMA shell)";
    slrs =
      [
        { slr_index = 0; capacity = vu9p_slr_capacity; shell = Resources.zero };
        { slr_index = 1; capacity = vu9p_slr_capacity; shell = u200_shell_slr1 };
        { slr_index = 2; capacity = vu9p_slr_capacity; shell = Resources.zero };
      ];
    fabric_clock_ps = 3333 (* 300 MHz kernel clock *);
    noc = Noc.Params.default ~clock_ps:3333;
    host =
      {
        mmio_latency_ps = 800_000 (* local PCIe, no virtualization hop *);
        dma_bandwidth_gbs = 13.0;
        dma_setup_ps = 4_000_000;
        shared_address_space = false;
      };
  }

let kria =
  {
    name = "Kria KV260 (Zynq UltraScale+)";
    kind = Fpga_embedded;
    slrs =
      [
        {
          slr_index = 0;
          capacity =
            Resources.make ~clb:14760 ~lut:117120 ~ff:234240 ~bram:144
              ~uram:64 ~dsp:1248 ();
          shell = Resources.make ~clb:800 ~lut:4000 ~ff:6000 ~bram:4 ();
        };
      ];
    fabric_clock_ps = 8000 (* 125 MHz default *);
    dram = Dram.Config.ddr4_2400;
    axi = Axi.Params.kria;
    noc = Noc.Params.default ~clock_ps:8000;
    host =
      {
        mmio_latency_ps = 200_000 (* on-die MMIO *);
        dma_bandwidth_gbs = 0. (* unused: shared address space *);
        dma_setup_ps = 0;
        shared_address_space = true;
      };
    memory_spill_threshold = 0.8;
    sram_library = None;
  }

let asap7 =
  {
    name = "ASIC (ASAP7-class)";
    kind = Asic;
    slrs =
      [
        {
          slr_index = 0;
          (* ASIC resources are unconstrained at this altitude; memory is
             the real constraint, handled by the SRAM compiler. *)
          capacity =
            Resources.make ~clb:max_int ~lut:max_int ~ff:max_int
              ~bram:max_int ~uram:max_int ~dsp:max_int ();
          shell = Resources.zero;
        };
      ];
    fabric_clock_ps = 1000 (* 1 GHz *);
    dram = Dram.Config.ddr4_2400;
    axi = Axi.Params.aws_f1;
    noc = Noc.Params.default ~clock_ps:1000;
    host =
      {
        mmio_latency_ps = 100_000;
        dma_bandwidth_gbs = 0.;
        dma_setup_ps = 0;
        shared_address_space = true;
      };
    memory_spill_threshold = 1.0;
    sram_library = Some Sram.asap7_library;
  }

(* ChipKIT-style test chip: an on-die ARM M0-class CPU drives the fabric
   directly (no external host IOs to declare) — the paper's third
   platform family. The M0 core itself is user-provided for licensing
   reasons; only its interface timing matters here. *)
let chipkit =
  {
    asap7 with
    name = "ChipKIT test chip (ASAP7, on-die M0)";
    fabric_clock_ps = 2500 (* 400 MHz test-chip clock *);
    noc = Noc.Params.default ~clock_ps:2500;
    host =
      {
        mmio_latency_ps = 20_000 (* a few on-die bus cycles *);
        dma_bandwidth_gbs = 0.;
        dma_setup_ps = 0;
        shared_address_space = true;
      };
  }

(* Synopsys educational PDK flow: same composer path as ASAP7 with the
   32-nm-class SRAM macros and a slower clock target. *)
let saed32 =
  {
    asap7 with
    name = "ASIC (Synopsys SAED32-class)";
    fabric_clock_ps = 2000 (* 500 MHz *);
    noc = Noc.Params.default ~clock_ps:2000;
    sram_library = Some Sram.saed32_library;
  }

let sim =
  {
    aws_f1 with
    name = "Simulation (Verilator-class)";
    kind = Simulation;
    host =
      {
        mmio_latency_ps = 40_000;
        dma_bandwidth_gbs = 100.;
        dma_setup_ps = 0;
        shared_address_space = false;
      };
  }

let total_capacity t =
  Resources.sum (List.map (fun s -> s.capacity) t.slrs)

let total_shell t = Resources.sum (List.map (fun s -> s.shell) t.slrs)

let slr_exn t i =
  match List.find_opt (fun s -> s.slr_index = i) t.slrs with
  | Some s -> s
  | None -> invalid_arg "Platform.slr_exn: no such SLR"

let fabric_freq_mhz t = 1.0e6 /. float_of_int t.fabric_clock_ps

module Power = struct
  (* Calibrated against the paper's 23-core A3 design: 24 W average power
     and 1.84 uJ/op at 16.59 M op/s (which implies ~30 W under load); the
     model lands between the two figures. *)
  let fpga_watts (r : Resources.t) ~freq_mhz =
    let f = freq_mhz /. 250. in
    let dynamic =
      (float_of_int r.Resources.lut *. 25e-6)
      +. (float_of_int r.Resources.ff *. 2e-6)
      +. (float_of_int r.Resources.bram *. 4e-3)
      +. (float_of_int r.Resources.uram *. 6e-3)
      +. (float_of_int r.Resources.dsp *. 0.5e-3)
    in
    4.0 +. (dynamic *. f)
end
