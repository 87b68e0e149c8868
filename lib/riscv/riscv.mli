(** Minimal RV32I host CPU with RoCC custom instructions.

    Beethoven carries commands in the RoCC format so its designs "can
    integrate with any RISC-V systems that support the RoCC extensions"
    (§II-A), and the ChipKIT test-chip platform instantiates an on-die CPU
    wired straight to the fabric. This module supplies that substrate: an
    RV32I interpreter with the custom-0/1 opcodes routed to a RoCC
    callback, plus an instruction-constructor "assembler" so host programs
    are written as OCaml values rather than parsed text.

    Scope: the RV32I base ISA (ALU ops, loads/stores, branches, jumps,
    LUI/AUIPC) + custom-0/1. No CSRs, no traps beyond illegal-instruction
    and misalignment errors — enough to run accelerator test benches, which
    is all the paper's platforms need from the M0-class host. *)

module Asm : sig
  type reg = int (** x0..x31 *)

  type insn

  (* ALU, immediate *)
  val addi : reg -> reg -> int -> insn
  val slti : reg -> reg -> int -> insn
  val andi : reg -> reg -> int -> insn
  val ori : reg -> reg -> int -> insn
  val xori : reg -> reg -> int -> insn
  val slli : reg -> reg -> int -> insn
  val srli : reg -> reg -> int -> insn
  val srai : reg -> reg -> int -> insn

  (* ALU, register *)
  val add : reg -> reg -> reg -> insn
  val sub : reg -> reg -> reg -> insn
  val and_ : reg -> reg -> reg -> insn
  val or_ : reg -> reg -> reg -> insn
  val xor_ : reg -> reg -> reg -> insn
  val sll : reg -> reg -> reg -> insn
  val srl : reg -> reg -> reg -> insn
  val sra : reg -> reg -> reg -> insn
  val slt : reg -> reg -> reg -> insn
  val sltu : reg -> reg -> reg -> insn

  (* upper immediates *)
  val lui : reg -> int -> insn
  val auipc : reg -> int -> insn

  (* memory *)
  val lw : reg -> reg -> int -> insn (** [lw rd rs1 imm] *)

  val lh : reg -> reg -> int -> insn
  val lhu : reg -> reg -> int -> insn
  val lb : reg -> reg -> int -> insn
  val lbu : reg -> reg -> int -> insn
  val sw : reg -> reg -> int -> insn (** [sw rs2 rs1 imm]: M[rs1+imm] = rs2 *)

  val sh : reg -> reg -> int -> insn
  val sb : reg -> reg -> int -> insn

  (* control flow (offsets in bytes, relative to the branch) *)
  val beq : reg -> reg -> int -> insn
  val bne : reg -> reg -> int -> insn
  val blt : reg -> reg -> int -> insn
  val bge : reg -> reg -> int -> insn
  val bltu : reg -> reg -> int -> insn
  val bgeu : reg -> reg -> int -> insn
  val jal : reg -> int -> insn
  val jalr : reg -> reg -> int -> insn

  (* RoCC: custom-0, funct7 selects the accelerator command *)
  val custom0 : funct7:int -> rd:reg -> rs1:reg -> rs2:reg -> xd:bool -> insn

  val ecall : insn (** halts the interpreter *)

  val encode : insn -> int32
  (** The 32-bit RV32I encoding (also what {!Cpu} executes). *)
end

module Cpu : sig
  type t

  type rocc_request = {
    funct7 : int;
    rs1_value : int32;
    rs2_value : int32;
    expects_result : bool;
  }

  val create :
    ?on_rocc:(rocc_request -> (int32 -> unit) -> unit) ->
    program:Asm.insn list ->
    unit ->
    t
  (** Load the program at address 0, PC = 0, SP (x2) at the top of memory.
      [on_rocc] receives each custom-0/1 instruction; when the instruction
      expects a result ([xd]), the CPU *blocks* until the callback supplies
      it — the RoCC response interlock. Memory: 1 MB. *)

  val step : t -> bool
  (** Execute one instruction; [false] once halted ([ecall]) or blocked on
      an outstanding RoCC result that has not been supplied. *)

  val run : t -> int
  (** Run until halt/block (ceiling 10M steps, then [Failure]).
      Returns instructions retired. *)

  val halted : t -> bool
  val blocked_on_rocc : t -> bool
  val reg : t -> int -> int32
  val set_reg : t -> int -> int32 -> unit
  val load_word : t -> int -> int32
  val store_word : t -> int -> int32 -> unit
  val pc : t -> int
end
