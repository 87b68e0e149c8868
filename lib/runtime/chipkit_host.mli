(** Test-chip host: an on-die RISC-V CPU driving the Beethoven fabric.

    The ChipKIT platform has no external host link — the CPU sits on the
    die and issues RoCC custom instructions straight into the command
    fabric (§II-D "ASIC Platforms"). This module co-simulates a
    {!Riscv.Cpu} with a {!Beethoven.Soc}: the CPU retires one instruction
    per host-clock tick of simulation time; a custom-0 instruction becomes
    a fabric command (rs1/rs2 zero-extended onto the RoCC payloads, funct7
    as the command selector), and an [xd] instruction stalls the pipeline
    until the accelerator's response writes the destination register —
    the RoCC interlock. *)

type t

val create :
  ?system:string ->
  ?core:int ->
  Beethoven.Soc.t ->
  program:Riscv.Asm.insn list ->
  t
(** The hart retires one instruction per cycle of the platform's fabric
    clock. [system]/[core] — the fixed routing for this hart's custom
    instructions (default: first system, core 0). *)

val start : t -> on_halt:(unit -> unit) -> unit
(** Begin executing; [on_halt] fires (in simulation time) at [ecall]. *)

val cpu : t -> Riscv.Cpu.t
val instructions_retired : t -> int
val commands_issued : t -> int
