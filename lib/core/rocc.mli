(** Rocket Custom Co-processor (RoCC) instruction format.

    Beethoven carries host commands in RoCC form: a 32-bit custom RISC-V
    instruction plus two 64-bit source-register payloads. The composer
    packs routing information (system id, core id) into the instruction so
    the generated fabric can steer a command to its target core; custom
    command formats (§II-B "Command Abstractions") are packed into one or
    more RoCC commands transparently. *)

type t = {
  system_id : int;  (** 0..255 — selects the Beethoven System *)
  core_id : int;  (** 0..1023 — selects the core within the system *)
  funct : int;  (** 0..127 — selects the command (IO) on the core *)
  expects_response : bool;
  payload1 : int64;
  payload2 : int64;
}

val encode : t -> Bits.t
(** 160-bit wire form: [instruction(32) :: payload1(64) :: payload2(64)].
    Raises [Invalid_argument] if a field is out of range. *)

val decode : Bits.t -> t
(** Inverse of {!encode}; raises [Invalid_argument] on a wrong width or a
    non-custom opcode. *)

val width : int (** = 160 *)

(** {1 Responses} *)

type response = {
  resp_system_id : int;
  resp_core_id : int;
  resp_data : int64;
}
