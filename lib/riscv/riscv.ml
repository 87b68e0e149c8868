module Asm = struct
  type reg = int
  type insn = int32

  let check_reg r = if r < 0 || r > 31 then invalid_arg "Asm: register x0..x31"

  let check_range name v lo hi =
    if v < lo || v > hi then
      invalid_arg (Printf.sprintf "Asm: %s immediate %d out of range" name v)

  let ( <<< ) v n = Int32.shift_left (Int32.of_int v) n
  let ( ||| ) = Int32.logor

  let r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
    check_reg rs2; check_reg rs1; check_reg rd;
    (funct7 <<< 25) ||| (rs2 <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
    ||| (rd <<< 7) ||| Int32.of_int opcode

  let i_type ~imm ~rs1 ~funct3 ~rd ~opcode =
    check_reg rs1; check_reg rd;
    check_range "I" imm (-2048) 2047;
    ((imm land 0xFFF) <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
    ||| (rd <<< 7) ||| Int32.of_int opcode

  let s_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
    check_reg rs2; check_reg rs1;
    check_range "S" imm (-2048) 2047;
    let imm = imm land 0xFFF in
    ((imm lsr 5) <<< 25) ||| (rs2 <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
    ||| ((imm land 0x1F) <<< 7) ||| Int32.of_int opcode

  let b_type ~imm ~rs2 ~rs1 ~funct3 =
    check_reg rs2; check_reg rs1;
    check_range "B" imm (-4096) 4095;
    if imm land 1 <> 0 then invalid_arg "Asm: branch offset must be even";
    let imm = imm land 0x1FFF in
    ((imm lsr 12) <<< 31)
    ||| (((imm lsr 5) land 0x3F) <<< 25)
    ||| (rs2 <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
    ||| (((imm lsr 1) land 0xF) <<< 8)
    ||| (((imm lsr 11) land 1) <<< 7)
    ||| 0b1100011l

  let u_type ~imm ~rd ~opcode =
    check_reg rd;
    check_range "U" imm 0 0xFFFFF;
    (imm <<< 12) ||| (rd <<< 7) ||| Int32.of_int opcode

  let j_type ~imm ~rd =
    check_reg rd;
    check_range "J" imm (-(1 lsl 20)) ((1 lsl 20) - 1);
    if imm land 1 <> 0 then invalid_arg "Asm: jump offset must be even";
    let imm = imm land 0x1FFFFF in
    ((imm lsr 20) <<< 31)
    ||| (((imm lsr 1) land 0x3FF) <<< 21)
    ||| (((imm lsr 11) land 1) <<< 20)
    ||| (((imm lsr 12) land 0xFF) <<< 12)
    ||| (rd <<< 7) ||| 0b1101111l

  let addi rd rs1 imm = i_type ~imm ~rs1 ~funct3:0 ~rd ~opcode:0b0010011
  let slti rd rs1 imm = i_type ~imm ~rs1 ~funct3:2 ~rd ~opcode:0b0010011
  let xori rd rs1 imm = i_type ~imm ~rs1 ~funct3:4 ~rd ~opcode:0b0010011
  let ori rd rs1 imm = i_type ~imm ~rs1 ~funct3:6 ~rd ~opcode:0b0010011
  let andi rd rs1 imm = i_type ~imm ~rs1 ~funct3:7 ~rd ~opcode:0b0010011

  let slli rd rs1 sh =
    check_range "shamt" sh 0 31;
    i_type ~imm:sh ~rs1 ~funct3:1 ~rd ~opcode:0b0010011

  let srli rd rs1 sh =
    check_range "shamt" sh 0 31;
    i_type ~imm:sh ~rs1 ~funct3:5 ~rd ~opcode:0b0010011

  let srai rd rs1 sh =
    check_range "shamt" sh 0 31;
    i_type ~imm:(sh lor 0x400) ~rs1 ~funct3:5 ~rd ~opcode:0b0010011

  let add rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:0 ~rd ~opcode:0b0110011
  let sub rd rs1 rs2 = r_type ~funct7:0x20 ~rs2 ~rs1 ~funct3:0 ~rd ~opcode:0b0110011
  let sll rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:1 ~rd ~opcode:0b0110011
  let slt rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:2 ~rd ~opcode:0b0110011
  let sltu rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:3 ~rd ~opcode:0b0110011
  let xor_ rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:4 ~rd ~opcode:0b0110011
  let srl rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:5 ~rd ~opcode:0b0110011
  let sra rd rs1 rs2 = r_type ~funct7:0x20 ~rs2 ~rs1 ~funct3:5 ~rd ~opcode:0b0110011
  let or_ rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:6 ~rd ~opcode:0b0110011
  let and_ rd rs1 rs2 = r_type ~funct7:0 ~rs2 ~rs1 ~funct3:7 ~rd ~opcode:0b0110011
  let lui rd imm = u_type ~imm ~rd ~opcode:0b0110111
  let auipc rd imm = u_type ~imm ~rd ~opcode:0b0010111
  let lb rd rs1 imm = i_type ~imm ~rs1 ~funct3:0 ~rd ~opcode:0b0000011
  let lh rd rs1 imm = i_type ~imm ~rs1 ~funct3:1 ~rd ~opcode:0b0000011
  let lw rd rs1 imm = i_type ~imm ~rs1 ~funct3:2 ~rd ~opcode:0b0000011
  let lbu rd rs1 imm = i_type ~imm ~rs1 ~funct3:4 ~rd ~opcode:0b0000011
  let lhu rd rs1 imm = i_type ~imm ~rs1 ~funct3:5 ~rd ~opcode:0b0000011
  let sb rs2 rs1 imm = s_type ~imm ~rs2 ~rs1 ~funct3:0 ~opcode:0b0100011
  let sh rs2 rs1 imm = s_type ~imm ~rs2 ~rs1 ~funct3:1 ~opcode:0b0100011
  let sw rs2 rs1 imm = s_type ~imm ~rs2 ~rs1 ~funct3:2 ~opcode:0b0100011
  let beq rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:0
  let bne rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:1
  let blt rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:4
  let bge rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:5
  let bltu rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:6
  let bgeu rs1 rs2 imm = b_type ~imm ~rs2 ~rs1 ~funct3:7
  let jal rd imm = j_type ~imm ~rd
  let jalr rd rs1 imm = i_type ~imm ~rs1 ~funct3:0 ~rd ~opcode:0b1100111

  let custom0 ~funct7 ~rd ~rs1 ~rs2 ~xd =
    if funct7 < 0 || funct7 > 127 then invalid_arg "Asm: funct7";
    (* RoCC: funct3 = {xd, xs1, xs2}; sources always read *)
    let funct3 = (if xd then 4 else 0) lor 0b011 in
    r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode:0b0001011

  let ecall = 0b1110011l
  let encode i = i
end

module Cpu = struct
  type rocc_request = {
    funct7 : int;
    rs1_value : int32;
    rs2_value : int32;
    expects_result : bool;
  }

  type t = {
    mem : Bytes.t;
    regs : int32 array;
    mutable pc : int;
    mutable halted : bool;
    mutable rocc_wait : int option; (* rd awaiting a result *)
    on_rocc : (rocc_request -> (int32 -> unit) -> unit) option;
  }

  let mem_bytes = 1 lsl 20

  let create ?on_rocc ~program () =
    let mem = Bytes.make mem_bytes '\000' in
    List.iteri
      (fun i insn -> Bytes.set_int32_le mem (4 * i) (Asm.encode insn))
      program;
    let regs = Array.make 32 0l in
    regs.(2) <- Int32.of_int mem_bytes;
    { mem; regs; pc = 0; halted = false; rocc_wait = None; on_rocc }

  let reg t r = if r = 0 then 0l else t.regs.(r)

  let set_reg t r v = if r <> 0 then t.regs.(r) <- v

  let check_addr t a n =
    if a < 0 || a + n > Bytes.length t.mem then
      failwith (Printf.sprintf "Cpu: memory access out of range (0x%x)" a);
    if a mod n <> 0 then
      failwith (Printf.sprintf "Cpu: misaligned %d-byte access (0x%x)" n a)

  let load_word t a =
    check_addr t a 4;
    Bytes.get_int32_le t.mem a

  let store_word t a v =
    check_addr t a 4;
    Bytes.set_int32_le t.mem a v

  let pc t = t.pc
  let halted t = t.halted
  let blocked_on_rocc t = t.rocc_wait <> None

  let sext32 v bits =
    let shift = 32 - bits in
    Int32.shift_right (Int32.shift_left v shift) shift

  let step t =
    if t.halted || t.rocc_wait <> None then false
    else begin
      let insn = Int32.to_int (load_word t t.pc) land 0xFFFFFFFF in
      let opcode = insn land 0x7F in
      let rd = (insn lsr 7) land 0x1F in
      let funct3 = (insn lsr 12) land 0x7 in
      let rs1 = (insn lsr 15) land 0x1F in
      let rs2 = (insn lsr 20) land 0x1F in
      let funct7 = (insn lsr 25) land 0x7F in
      let i_imm = Int32.to_int (sext32 (Int32.of_int (insn lsr 20)) 12) in
      let s_imm =
        Int32.to_int
          (sext32
             (Int32.of_int (((insn lsr 25) lsl 5) lor ((insn lsr 7) land 0x1F)))
             12)
      in
      let b_imm =
        let v =
          (((insn lsr 31) land 1) lsl 12)
          lor (((insn lsr 7) land 1) lsl 11)
          lor (((insn lsr 25) land 0x3F) lsl 5)
          lor (((insn lsr 8) land 0xF) lsl 1)
        in
        Int32.to_int (sext32 (Int32.of_int v) 13)
      in
      let j_imm =
        let v =
          (((insn lsr 31) land 1) lsl 20)
          lor (((insn lsr 12) land 0xFF) lsl 12)
          lor (((insn lsr 20) land 1) lsl 11)
          lor (((insn lsr 21) land 0x3FF) lsl 1)
        in
        Int32.to_int (sext32 (Int32.of_int v) 21)
      in
      let v1 = reg t rs1 and v2 = reg t rs2 in
      let next = ref (t.pc + 4) in
      (match opcode with
      | 0b0010011 -> (
          (* ALU immediate *)
          let imm32 = Int32.of_int i_imm in
          match funct3 with
          | 0 -> set_reg t rd (Int32.add v1 imm32)
          | 2 -> set_reg t rd (if Int32.compare v1 imm32 < 0 then 1l else 0l)
          | 3 ->
              set_reg t rd
                (if Int32.unsigned_compare v1 imm32 < 0 then 1l else 0l)
          | 4 -> set_reg t rd (Int32.logxor v1 imm32)
          | 6 -> set_reg t rd (Int32.logor v1 imm32)
          | 7 -> set_reg t rd (Int32.logand v1 imm32)
          | 1 -> set_reg t rd (Int32.shift_left v1 (i_imm land 0x1F))
          | 5 ->
              if i_imm land 0x400 <> 0 then
                set_reg t rd (Int32.shift_right v1 (i_imm land 0x1F))
              else set_reg t rd (Int32.shift_right_logical v1 (i_imm land 0x1F))
          | _ -> failwith "Cpu: illegal OP-IMM")
      | 0b0110011 -> (
          match (funct3, funct7) with
          | 0, 0 -> set_reg t rd (Int32.add v1 v2)
          | 0, 0x20 -> set_reg t rd (Int32.sub v1 v2)
          | 1, _ -> set_reg t rd (Int32.shift_left v1 (Int32.to_int v2 land 31))
          | 2, _ -> set_reg t rd (if Int32.compare v1 v2 < 0 then 1l else 0l)
          | 3, _ ->
              set_reg t rd
                (if Int32.unsigned_compare v1 v2 < 0 then 1l else 0l)
          | 4, _ -> set_reg t rd (Int32.logxor v1 v2)
          | 5, 0 ->
              set_reg t rd (Int32.shift_right_logical v1 (Int32.to_int v2 land 31))
          | 5, 0x20 ->
              set_reg t rd (Int32.shift_right v1 (Int32.to_int v2 land 31))
          | 6, _ -> set_reg t rd (Int32.logor v1 v2)
          | 7, _ -> set_reg t rd (Int32.logand v1 v2)
          | _ -> failwith "Cpu: illegal OP")
      | 0b0110111 -> set_reg t rd (Int32.shift_left (Int32.of_int (insn lsr 12)) 12)
      | 0b0010111 ->
          set_reg t rd
            (Int32.add (Int32.of_int t.pc)
               (Int32.shift_left (Int32.of_int (insn lsr 12)) 12))
      | 0b0000011 -> (
          let addr = Int32.to_int v1 + i_imm in
          match funct3 with
          | 0 ->
              check_addr t addr 1;
              set_reg t rd
                (sext32 (Int32.of_int (Char.code (Bytes.get t.mem addr))) 8)
          | 1 ->
              check_addr t addr 2;
              set_reg t rd
                (sext32 (Int32.of_int (Bytes.get_uint16_le t.mem addr)) 16)
          | 2 -> set_reg t rd (load_word t addr)
          | 4 ->
              check_addr t addr 1;
              set_reg t rd (Int32.of_int (Char.code (Bytes.get t.mem addr)))
          | 5 ->
              check_addr t addr 2;
              set_reg t rd (Int32.of_int (Bytes.get_uint16_le t.mem addr))
          | _ -> failwith "Cpu: illegal LOAD")
      | 0b0100011 -> (
          let addr = Int32.to_int v1 + s_imm in
          match funct3 with
          | 0 ->
              check_addr t addr 1;
              Bytes.set t.mem addr (Char.chr (Int32.to_int v2 land 0xFF))
          | 1 ->
              check_addr t addr 2;
              Bytes.set_uint16_le t.mem addr (Int32.to_int v2 land 0xFFFF)
          | 2 -> store_word t addr v2
          | _ -> failwith "Cpu: illegal STORE")
      | 0b1100011 ->
          let taken =
            match funct3 with
            | 0 -> Int32.equal v1 v2
            | 1 -> not (Int32.equal v1 v2)
            | 4 -> Int32.compare v1 v2 < 0
            | 5 -> Int32.compare v1 v2 >= 0
            | 6 -> Int32.unsigned_compare v1 v2 < 0
            | 7 -> Int32.unsigned_compare v1 v2 >= 0
            | _ -> failwith "Cpu: illegal BRANCH"
          in
          if taken then next := t.pc + b_imm
      | 0b1101111 ->
          set_reg t rd (Int32.of_int (t.pc + 4));
          next := t.pc + j_imm
      | 0b1100111 ->
          set_reg t rd (Int32.of_int (t.pc + 4));
          next := (Int32.to_int v1 + i_imm) land lnot 1
      | 0b1110011 -> t.halted <- true
      | 0b0001011 | 0b0101011 -> (
          (* custom-0 / custom-1: RoCC *)
          match t.on_rocc with
          | None -> failwith "Cpu: RoCC instruction with no accelerator"
          | Some f ->
              let expects_result = funct3 land 4 <> 0 in
              let req =
                { funct7; rs1_value = v1; rs2_value = v2; expects_result }
              in
              if expects_result then begin
                t.rocc_wait <- Some rd;
                f req (fun result ->
                    (match t.rocc_wait with
                    | Some rd -> set_reg t rd result
                    | None -> ());
                    t.rocc_wait <- None)
              end
              else f req (fun _ -> ()))
      | _ -> failwith (Printf.sprintf "Cpu: illegal opcode 0x%02x" opcode));
      t.pc <- !next;
      true
    end

  let max_steps = 10_000_000

  let run t =
    let retired = ref 0 in
    while step t do
      incr retired;
      if !retired >= max_steps then failwith "Cpu.run: step ceiling reached"
    done;
    !retired
end
