type t = {
  system_id : int;
  core_id : int;
  funct : int;
  expects_response : bool;
  payload1 : int64;
  payload2 : int64;
}

let opcode_custom0 = 0b0001011
let width = 160

let check_range name v lo hi =
  if v < lo || v > hi then
    invalid_arg (Printf.sprintf "Rocc: %s = %d out of range [%d, %d]" name v lo hi)

(* Instruction layout (32 bits):
     [31:25] funct7      — command selector
     [24:20] rs2         — core_id high bits
     [19:15] rs1         — core_id low bits
     [14]    xd          — expects_response
     [13:12] (xs1, xs2)  — always set: payloads are always carried
     [11:7]  rd          — system_id low 5 bits
     [6:0]   opcode      — custom-0, with system_id high 3 bits folded into
                           a side channel: we keep opcode pure and put
                           system_id[7:5] in rs2's top bits instead. *)
let encode t =
  check_range "system_id" t.system_id 0 255;
  check_range "core_id" t.core_id 0 1023;
  check_range "funct" t.funct 0 127;
  let funct7 = Bits.of_int ~width:7 t.funct in
  let core = t.core_id in
  let rs2 = Bits.of_int ~width:5 (core lsr 5) in
  let rs1 = Bits.of_int ~width:5 (core land 0x1f) in
  let xd = if t.expects_response then Bits.one 1 else Bits.zero 1 in
  let xs = Bits.of_int ~width:2 0b11 in
  let sys = t.system_id in
  let rd = Bits.of_int ~width:5 (sys land 0x1f) in
  let opcode =
    (* custom-0/1/2/3 encode system_id[6:5] in the opcode "custom" index *)
    Bits.of_int ~width:7 (opcode_custom0 lor ((sys lsr 5) lsl 4))
  in
  let insn = Bits.concat_list [ funct7; rs2; rs1; xd; xs; rd; opcode ] in
  assert (Bits.width insn = 32);
  Bits.concat_list
    [ insn; Bits.of_int64 ~width:64 t.payload1; Bits.of_int64 ~width:64 t.payload2 ]

let decode b =
  if Bits.width b <> width then invalid_arg "Rocc.decode: wrong width";
  let insn = Bits.slice b ~hi:159 ~lo:128 in
  let payload1 = Bits.to_int64 (Bits.slice b ~hi:127 ~lo:64) in
  let payload2 = Bits.to_int64 (Bits.slice b ~hi:63 ~lo:0) in
  let field hi lo = Bits.to_int (Bits.slice insn ~hi ~lo) in
  let opcode = field 6 0 in
  if opcode land 0b1111 <> opcode_custom0 land 0b1111 then
    invalid_arg "Rocc.decode: not a custom opcode";
  let funct = field 31 25 in
  let core_id = (field 24 20 lsl 5) lor field 19 15 in
  let expects_response = field 14 14 = 1 in
  let system_id = (((opcode lsr 4) land 0b111) lsl 5) lor field 11 7 in
  { system_id; core_id; funct; expects_response; payload1; payload2 }

type response = {
  resp_system_id : int;
  resp_core_id : int;
  resp_data : int64;
}
