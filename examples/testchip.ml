(* The ASIC test-chip story end to end (§II-D): the ChipKIT platform has
   an on-die RISC-V-class CPU wired straight into the Beethoven fabric.
   Here a real RV32I program — assembled in OCaml, executed by the
   co-simulated CPU — issues RoCC custom instructions that drive the
   vector-add RTL core, while the composer's ASIC backend compiles the
   design's memories onto SRAM macros.

     dune exec examples/testchip.exe *)

module A = Riscv.Asm
module B = Beethoven

let () =
  let platform = Platform.Device.chipkit in
  let design = B.Elaborate.elaborate (Kernels.Vecadd_rtl.config ()) platform in
  Printf.printf "=== %s ===\n" platform.Platform.Device.name;
  print_string (B.Elaborate.summary design);

  (* An RV32 host has 32-bit RoCC payloads, while the RTL core's command
     packs n_eles above bit 32 — on a real test chip Beethoven's generated
     software emits a second beat. This demo does what that glue does: a
     funct-9 wrapper accepts the RV32-friendly layout
     (rs2 = n<<16 | addend) and re-forms the core's single-beat command. *)
  let base = 0x40000 in
  let n = 32 in
  let adapter_cmd_funct = 9 in
  let behaviors _ : B.Soc.behavior =
   fun ctx ->
    (* one RTL core per core: apply its behavior once *)
    let rtl = Kernels.Vecadd_rtl.behavior ctx in
    fun beats ~respond ->
      let beat = List.hd beats in
      if beat.B.Rocc.funct = adapter_cmd_funct then begin
        (* unpack the RV32-friendly layout and re-issue to the RTL core *)
        let rs1 = Int64.to_int beat.B.Rocc.payload1 in
        let rs2 = Int64.to_int beat.B.Rocc.payload2 in
        let addend = rs2 land 0xFFFF and count = (rs2 lsr 16) land 0xFFFF in
        let rtl_beat =
          {
            beat with
            B.Rocc.funct = 0;
            payload1 = Int64.of_int rs1;
            payload2 =
              Int64.logor (Int64.of_int addend)
                (Int64.shift_left (Int64.of_int count) 32);
          }
        in
        rtl [ rtl_beat ] ~respond
      end
      else rtl beats ~respond
  in
  let soc = B.Soc.create design ~behaviors in
  for i = 0 to n - 1 do
    B.Soc.write_u32 soc (base + (4 * i)) (Int32.of_int (i * 3))
  done;
  let program =
    [
      A.lui 1 (base lsr 12); (* x1 = vector address *)
      A.addi 5 0 n;
      A.slli 5 5 16;
      A.addi 5 5 100; (* x5 = n<<16 | addend=100 *)
      A.custom0 ~funct7:adapter_cmd_funct ~rd:6 ~rs1:1 ~rs2:5 ~xd:true;
      A.ecall;
    ]
  in
  let host = Runtime.Chipkit_host.create soc ~program in
  let halted = ref false in
  Runtime.Chipkit_host.start host ~on_halt:(fun () -> halted := true);
  Desim.Engine.run (B.Soc.engine soc);
  assert !halted;
  let ok = ref true in
  for i = 0 to n - 1 do
    if B.Soc.read_u32 soc (base + (4 * i)) <> Int32.of_int ((i * 3) + 100)
    then ok := false
  done;
  Printf.printf
    "\nRISC-V host: %d instructions retired, %d RoCC command(s); response \
     x6 = %ld; vector %s\n"
    (Runtime.Chipkit_host.instructions_retired host)
    (Runtime.Chipkit_host.commands_issued host)
    (Riscv.Cpu.reg (Runtime.Chipkit_host.cpu host) 6)
    (if !ok then "updated correctly by the RTL core" else "WRONG");
  (* a design with scratchpads exercises the SRAM compiler on this flow *)
  let a3 = B.Elaborate.elaborate (Attention.A3_rtl_core.config ()) platform in
  Printf.printf "\nSRAM compilation (A3 core on the same flow):\n";
  List.iter
    (fun (name, plan) ->
      Printf.printf "  %s -> %s\n" name (Platform.Sram.describe plan))
    a3.B.Elaborate.sram_plans;
  print_string "\n";
  print_string (B.Soc.stats_report soc);
  if not !ok then exit 1
