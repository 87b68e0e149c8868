(* Compiled-simulator tests: directed unit checks on every fast/wide
   evaluation path of Hw.Compile, the unconnected-wire diagnosability
   regression, and the differential qcheck suite — random mixed-width
   circuits with memories, interpreter and compiled backend in lockstep,
   every output and every backdoor-read memory word compared on every
   cycle. *)

open Hw.Signal
module Circuit = Hw.Circuit
module Cyclesim = Hw.Cyclesim
module Compile = Hw.Compile
module Sim = Hw.Sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let circuit1 ?(name = "t") o = Circuit.create ~name ~outputs:[ ("o", o) ]

(* run one combinational circuit through both backends on the same inputs
   and return (interpreter value, compiled value) of output "o" *)
let both circuit inputs =
  let si = Cyclesim.create circuit and sc = Compile.create circuit in
  let ports = Circuit.inputs circuit in
  List.iter
    (fun (n, v) ->
      (* unused operands may be folded out of small directed circuits *)
      if List.mem_assoc n ports then begin
        Cyclesim.set_input si n v;
        Compile.set_input sc n v
      end)
    inputs;
  (Cyclesim.output si "o", Compile.output sc "o")

let check_agree what circuit inputs =
  let vi, vc = both circuit inputs in
  check_string what (Bits.to_hex_string vi) (Bits.to_hex_string vc)

(* ---- directed: fast path (width <= 62) ---- *)

let test_fast_arith () =
  let a = input "a" 8 and b = input "b" 8 in
  let i x = [ ("a", Bits.of_int ~width:8 x); ("b", Bits.of_int ~width:8 200) ] in
  check_agree "add wraps" (circuit1 (a +: b)) (i 100);
  check_agree "sub wraps" (circuit1 (a -: b)) (i 100);
  check_agree "mul truncates" (circuit1 (a *: b)) (i 200);
  check_agree "not masks" (circuit1 (lnot a)) (i 0);
  check_agree "eq" (circuit1 (uresize (a ==: b) 8)) (i 200);
  check_agree "lt" (circuit1 (uresize (a <: b) 8)) (i 100);
  (* direct value check, not just agreement *)
  let sc = Compile.create (circuit1 (a +: b)) in
  Compile.set_input_int sc "a" 200;
  Compile.set_input_int sc "b" 100;
  check_int "200+100 mod 256" 44 (Compile.output_int sc "o")

let test_fast_near_63_bits () =
  (* width 62 is the last single-word width: masks and to_int_trunc must
     be exact right at the boundary *)
  let a = input "a" 62 and b = input "b" 62 in
  let x = Bits.sub (Bits.zero 62) (Bits.one 62) (* all-ones, 62 bits *) in
  let i = [ ("a", x); ("b", Bits.of_int ~width:62 3) ] in
  check_agree "62-bit add" (circuit1 (a +: b)) i;
  check_agree "62-bit mul" (circuit1 (a *: b)) i;
  check_agree "62-bit not" (circuit1 (lnot a)) i;
  check_agree "62-bit sra" (circuit1 (sra a 13)) i;
  let vi, vc = both (circuit1 (a +: b)) i in
  (* all-ones + 3 wraps to 2 at width 62 *)
  check_string "62-bit add value" "0000000000000002" (Bits.to_hex_string vi);
  check_string "62-bit add value (compiled)" "0000000000000002"
    (Bits.to_hex_string vc)

let test_fast_shifts () =
  let a = input "a" 8 in
  let i = [ ("a", Bits.of_int ~width:8 0xb5) ] in
  List.iter
    (fun k ->
      check_agree (Printf.sprintf "sll %d" k) (circuit1 (sll a k)) i;
      check_agree (Printf.sprintf "srl %d" k) (circuit1 (srl a k)) i;
      check_agree (Printf.sprintf "sra %d" k) (circuit1 (sra a k)) i)
    [ 0; 1; 7; 8; 9 ];
  (* saturation values, pinned *)
  let sc = Compile.create (circuit1 (sra a 9)) in
  Compile.set_input_int sc "a" 0xb5;
  check_int "sra past width replicates sign" 0xff (Compile.output_int sc "o");
  let sc = Compile.create (circuit1 (sll a 9)) in
  Compile.set_input_int sc "a" 0xb5;
  check_int "sll past width is zero" 0 (Compile.output_int sc "o")

let test_mux_clamp () =
  let sel = input "s" 4 in
  let cases = List.init 5 (fun i -> of_int ~width:8 (10 * (i + 1))) in
  let c = circuit1 (mux sel cases) in
  for s = 0 to 15 do
    check_agree
      (Printf.sprintf "mux sel=%d" s)
      c
      [ ("s", Bits.of_int ~width:4 s) ]
  done;
  let sc = Compile.create c in
  Compile.set_input_int sc "s" 12;
  check_int "out-of-range selects last case" 50 (Compile.output_int sc "o")

(* ---- directed: wide path and the fast/wide boundary ---- *)

let test_wide_ops () =
  let a = input "a" 65 and b = input "b" 65 in
  let va = Bits.of_hex_string ~width:65 "1ffffffffffffffff" in
  let vb = Bits.of_hex_string ~width:65 "0123456789abcdef0" in
  let i = [ ("a", va); ("b", vb) ] in
  check_agree "65-bit add" (circuit1 (a +: b)) i;
  check_agree "65-bit sub" (circuit1 (a -: b)) i;
  check_agree "65-bit mul" (circuit1 (a *: b)) i;
  check_agree "65-bit xor" (circuit1 (a ^: b)) i;
  check_agree "65-bit not" (circuit1 (lnot a)) i;
  check_agree "65-bit srl" (circuit1 (srl a 33)) i;
  check_agree "65-bit sra" (circuit1 (sra a 33)) i;
  (* wide operands, 1-bit (fast) results *)
  check_agree "65-bit eq" (circuit1 (uresize (a ==: b) 8)) i;
  check_agree "65-bit lt" (circuit1 (uresize (a <: b) 8)) i

let test_cross_boundary () =
  let a = input "a" 128 and b = input "b" 8 in
  let va = Bits.of_hex_string ~width:128 "deadbeefcafebabe0123456789abcdef" in
  let i = [ ("a", va); ("b", Bits.of_int ~width:8 0x5a) ] in
  (* fast select out of a wide source, straddling limb boundaries *)
  List.iter
    (fun lo ->
      check_agree
        (Printf.sprintf "select 8 @%d from 128" lo)
        (circuit1 (select a ~hi:(lo + 7) ~lo))
        i)
    [ 0; 13; 15; 16; 31; 60; 63; 64; 119; 120 ];
  (* wide select out of a wide source *)
  check_agree "wide select" (circuit1 (select a ~hi:99 ~lo:2)) i;
  (* fast concat built from fast parts *)
  check_agree "fast concat"
    (circuit1 (concat [ b; select a ~hi:7 ~lo:0; b ]))
    i;
  (* wide concat mixing fast and wide parts *)
  check_agree "wide concat" (circuit1 (concat [ b; select a ~hi:70 ~lo:0 ])) i;
  (* mux with a wide selector (fast cases) *)
  let sel = input "s" 70 in
  check_agree "wide selector mux"
    (circuit1 (mux sel [ b; lnot b; b ^: of_int ~width:8 3 ]))
    (("s", Bits.of_int ~width:70 1) :: i)

(* ---- directed: sequential elements ---- *)

let test_reg_enable_clear () =
  let d = input "d" 8 and en = input "en" 1 and clr = input "clr" 1 in
  let q = reg ~enable:en ~clear:clr ~init:(Bits.of_int ~width:8 7) d -- "q" in
  let c = circuit1 q in
  let si = Cyclesim.create c and sc = Compile.create c in
  let drive n v =
    Cyclesim.set_input_int si n v;
    Compile.set_input_int sc n v
  in
  let agree what =
    check_int what (Cyclesim.output_int si "o") (Compile.output_int sc "o")
  in
  drive "d" 0;
  drive "en" 0;
  drive "clr" 0;
  agree "init visible before first step";
  check_int "init value" 7 (Compile.output_int sc "o");
  drive "d" 42;
  drive "en" 1;
  Cyclesim.step si;
  Compile.step sc;
  agree "latched when enabled";
  check_int "latched value" 42 (Compile.output_int sc "o");
  drive "d" 99;
  drive "en" 0;
  Cyclesim.step si;
  Compile.step sc;
  agree "holds when disabled";
  check_int "held value" 42 (Compile.output_int sc "o");
  drive "clr" 1;
  drive "en" 1;
  Cyclesim.step si;
  Compile.step sc;
  agree "clear beats enable";
  check_int "cleared to init" 7 (Compile.output_int sc "o")

let test_reg_read_before_write () =
  (* a 2-stage shift register: q2 must see q1's pre-edge value *)
  let d = input "d" 8 in
  let q1 = reg d -- "q1" in
  let q2 = reg q1 -- "q2" in
  let c = Circuit.create ~name:"t" ~outputs:[ ("q1", q1); ("q2", q2) ] in
  let sc = Compile.create c in
  Compile.set_input_int sc "d" 5;
  Compile.step sc;
  Compile.set_input_int sc "d" 6;
  Compile.step sc;
  check_int "q1 after two steps" 6 (Compile.output_int sc "q1");
  check_int "q2 lags one cycle" 5 (Compile.output_int sc "q2")

let test_memory_semantics () =
  let m = Mem.create ~name:"m" ~size:16 ~width:8 () in
  let wa = input "wa" 4 and wd = input "wd" 8 and we = input "we" 1 in
  let ra = input "ra" 4 in
  Mem.write m ~enable:we ~addr:wa ~data:wd;
  (* second port on the same address: declared later, must win *)
  Mem.write m ~enable:we ~addr:wa ~data:(wd +: of_int ~width:8 1);
  let rd_async = Mem.read_async m ~addr:ra in
  let rd_sync = Mem.read_sync m ~enable:vdd ~addr:ra () in
  let c =
    Circuit.create ~name:"t"
      ~outputs:[ ("ra_async", rd_async); ("ra_sync", rd_sync) ]
  in
  let si = Cyclesim.create c and sc = Compile.create c in
  let drive n v =
    Cyclesim.set_input_int si n v;
    Compile.set_input_int sc n v
  in
  let agree what out =
    check_int what (Cyclesim.output_int si out) (Compile.output_int sc out)
  in
  drive "wa" 3;
  drive "wd" 10;
  drive "we" 1;
  drive "ra" 3;
  Cyclesim.settle si;
  Compile.settle sc;
  agree "async read of unwritten cell" "ra_async";
  check_int "unwritten reads zero" 0 (Compile.output_int sc "ra_async");
  Cyclesim.step si;
  Compile.step sc;
  (* sync read latched the pre-write (read-first) contents *)
  agree "sync read is read-first" "ra_sync";
  check_int "read-first sees old zero" 0 (Compile.output_int sc "ra_sync");
  agree "async read sees committed write" "ra_async";
  check_int "last write port wins" 11 (Compile.output_int sc "ra_async");
  drive "we" 0;
  Cyclesim.step si;
  Compile.step sc;
  agree "sync read catches up" "ra_sync";
  check_int "sync read now 11" 11 (Compile.output_int sc "ra_sync");
  (* backdoor access agrees and invalidates settled state the same way *)
  let v = Bits.of_int ~width:8 77 in
  Cyclesim.write_memory si m 9 v;
  Compile.write_memory sc m 9 v;
  drive "ra" 9;
  agree "backdoor write visible" "ra_async";
  check_string "backdoor read agrees"
    (Bits.to_hex_string (Cyclesim.read_memory si m 9))
    (Bits.to_hex_string (Compile.read_memory sc m 9))

let test_wide_memory () =
  let m = Mem.create ~name:"wm" ~size:8 ~width:100 () in
  let wa = input "wa" 3 and wd = input "wd" 100 and we = input "we" 1 in
  Mem.write m ~enable:we ~addr:wa ~data:wd;
  let c = circuit1 (Mem.read_async m ~addr:(input "ra" 3)) in
  let si = Cyclesim.create c and sc = Compile.create c in
  let v = Bits.of_hex_string ~width:100 "fedcba9876543210fedcba987" in
  List.iter
    (fun (n, b) ->
      Cyclesim.set_input si n b;
      Compile.set_input sc n b)
    [
      ("wa", Bits.of_int ~width:3 5); ("wd", v); ("we", Bits.one 1);
      ("ra", Bits.of_int ~width:3 5);
    ];
  Cyclesim.step si;
  Compile.step sc;
  check_string "wide memory write/read"
    (Bits.to_hex_string (Cyclesim.output si "o"))
    (Bits.to_hex_string (Compile.output sc "o"));
  check_string "wide memory value" (Bits.to_hex_string v)
    (Bits.to_hex_string (Compile.output sc "o"))

(* ---- directed: change-only clock edges ---- *)

(* both backends, the same input drives, and an agreement check *)
let pair c =
  let si = Cyclesim.create c and sc = Compile.create c in
  let drive n v =
    Cyclesim.set_input_int si n v;
    Compile.set_input_int sc n v
  in
  let step () =
    Cyclesim.step si;
    Compile.step sc
  in
  let agree what out =
    let v = Compile.output_int sc out in
    check_int what (Cyclesim.output_int si out) v;
    v
  in
  (si, sc, drive, step, agree)

let test_sync_read_after_port_write () =
  (* the read's address and enable never change: only the write port's
     change of the word can make it latch again *)
  let m = Mem.create ~name:"m" ~size:8 ~width:8 () in
  let we = input "we" 1 and wd = input "wd" 8 in
  Mem.write m ~enable:we ~addr:(of_int ~width:3 5) ~data:wd;
  let rd = Mem.read_sync m ~addr:(of_int ~width:3 5) () in
  let _, _, drive, step, agree = pair (circuit1 rd) in
  drive "we" 0;
  drive "wd" 0;
  step ();
  check_int "unwritten word" 0 (agree "before the write" "o");
  drive "we" 1;
  drive "wd" 42;
  step ();
  check_int "read-first at the writing edge" 0 (agree "writing edge" "o");
  drive "we" 0;
  step ();
  check_int "next edge sees the write" 42 (agree "after the write" "o");
  step ();
  check_int "and keeps it" 42 (agree "held" "o")

let test_sync_read_after_backdoor_write () =
  let m = Mem.create ~name:"m" ~size:8 ~width:8 () in
  let rd = Mem.read_sync m ~addr:(input "ra" 3) () in
  let si, sc, drive, step, agree = pair (circuit1 rd) in
  drive "ra" 3;
  step ();
  check_int "unwritten word" 0 (agree "before the write" "o");
  let v = Bits.of_int ~width:8 99 in
  Cyclesim.write_memory si m 3 v;
  Compile.write_memory sc m 3 v;
  check_int "a sync read waits for the edge" 0 (agree "before the edge" "o");
  step ();
  check_int "the edge latches the backdoor write" 99 (agree "after the edge" "o")

let test_reg_held_by_enable () =
  let d = input "d" 8 and en = input "en" 1 in
  let q = reg ~enable:en d in
  let _, _, drive, step, agree = pair (circuit1 q) in
  drive "d" 5;
  drive "en" 1;
  step ();
  check_int "enabled latch" 5 (agree "enabled" "o");
  drive "en" 0;
  drive "d" 6;
  step ();
  step ();
  check_int "held while enable is low" 5 (agree "held" "o");
  (* d does not change again: the enable alone must make it latch *)
  drive "en" 1;
  step ();
  check_int "latches the d that changed while held" 6 (agree "re-enabled" "o")

let test_reg_clear_held_high () =
  let d = input "d" 8 and clr = input "clr" 1 in
  let q = reg ~clear:clr ~init:(Bits.of_int ~width:8 7) d in
  let _, _, drive, step, agree = pair (circuit1 q) in
  drive "d" 1;
  drive "clr" 0;
  step ();
  check_int "latched" 1 (agree "running" "o");
  drive "clr" 1;
  step ();
  check_int "cleared" 7 (agree "cleared" "o");
  drive "d" 2;
  step ();
  drive "d" 3;
  step ();
  check_int "stays at init while clear is high" 7 (agree "clear held" "o");
  drive "clr" 0;
  step ();
  check_int "latches d once clear drops" 3 (agree "released" "o")

let test_peek_fused_sext () =
  (* sext builds msb select -> repeat -> concat; the compiled backend
     fuses the three and peek must still read the inner two exactly *)
  let a = input "a" 8 in
  let e = sext a 20 in
  let rep, top =
    match kind e with
    | Concat [ r; _ ] -> (
        match kind r with
        | Concat (t :: _) -> (r, t)
        | _ -> Alcotest.fail "sext: no repeat")
    | _ -> Alcotest.fail "sext: not a concat"
  in
  let c = circuit1 e in
  let si = Cyclesim.create c and sc = Compile.create c in
  List.iter
    (fun x ->
      Cyclesim.set_input_int si "a" x;
      Compile.set_input_int sc "a" x;
      List.iter
        (fun (what, g) ->
          check_string
            (Printf.sprintf "%s of 0x%x" what x)
            (Bits.to_hex_string (Cyclesim.peek si g))
            (Bits.to_hex_string (Compile.peek sc g)))
        [ ("msb", top); ("repeat", rep); ("sext", e) ])
    [ 0x7f; 0x80; 0x00; 0xff; 0x80 ]

(* a handle indexes its simulator's arrays unchecked, so another
   simulator must refuse it: a second simulator of the same circuit (its
   slots in range) and one of a larger circuit (its output's slot out of
   range) *)
let test_foreign_handle_refused () =
  let small = circuit1 (input "a" 4 +: of_int ~width:4 1) in
  let big =
    circuit1
      (List.fold_left
         (fun acc k -> acc +: of_int ~width:4 k)
         (input "b" 4) (List.init 40 Fun.id))
  in
  let sc = Compile.create small in
  Compile.set_input_int sc "a" 2;
  List.iter
    (fun (what, other, inp) ->
      let ip = Compile.in_port other inp and op = Compile.out_port other "o" in
      let refused name f =
        match f () with
        | () -> Alcotest.failf "%s: %s accepted a foreign handle" what name
        | exception Invalid_argument msg ->
            let sub = "another simulator" in
            let n = String.length sub and m = String.length msg in
            let rec go i =
              i + n <= m && (String.sub msg i n = sub || go (i + 1))
            in
            check_bool (Printf.sprintf "%s: %s says why: %s" what name msg) true
              (go 0)
      in
      refused "set" (fun () -> Compile.set sc ip (Bits.of_int ~width:4 9));
      refused "set_int" (fun () -> Compile.set_int sc ip 9);
      refused "get" (fun () -> ignore (Compile.get sc op));
      refused "get_int" (fun () -> ignore (Compile.get_int sc op));
      check_int (what ^ ": the input kept its value") 3 (Compile.output_int sc "o"))
    [
      ("same circuit", Compile.create small, "a");
      ("larger circuit", Compile.create big, "b");
    ]

(* ---- diagnosability: unconnected wires ---- *)

let test_unconnected_wire_rejected () =
  (* Circuit.create is the front door: a dangling wire must be rejected
     there with the wire named, before either backend can trip on it *)
  let w = wire 4 -- "hanging" in
  match Circuit.create ~name:"t" ~outputs:[ ("o", w +: of_int ~width:4 1) ] with
  | _ -> Alcotest.fail "dangling wire must not elaborate"
  | exception Failure msg ->
      let contains sub =
        let n = String.length sub and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      check_bool ("error names the wire: " ^ msg) true (contains "hanging")

(* ---- the Sim dispatch layer ---- *)

let test_sim_dispatch () =
  let a = input "a" 8 in
  let c = circuit1 (a +: of_int ~width:8 1) in
  check_bool "default backend is compiled" true
    (Sim.backend (Sim.create c) = Sim.Compiled);
  check_string "backend names" "interpreter,compiled"
    (String.concat ","
       (List.map Sim.backend_name [ Sim.Interpreter; Sim.Compiled ]));
  check_bool "backend_of_string round-trips" true
    (List.for_all
       (fun b -> Sim.backend_of_string (Sim.backend_name b) = Some b)
       [ Sim.Interpreter; Sim.Compiled ]);
  check_bool "backend_of_string rejects junk" true
    (Sim.backend_of_string "fast" = None);
  List.iter
    (fun b ->
      let s = Sim.create ~backend:b c in
      check_bool "backend recorded" true (Sim.backend s = b);
      Sim.set_input_int s "a" 41;
      check_int (Sim.backend_name b ^ " computes") 42 (Sim.output_int s "o");
      Sim.step s;
      check_int (Sim.backend_name b ^ " counts cycles") 1 (Sim.cycle s))
    [ Sim.Interpreter; Sim.Compiled ]

(* ---- qcheck: interpreter and compiled in lockstep ---- *)

(* random mixed-width circuit: an 8-bit (fast) pool and a 70-bit (wide)
   pool grown by the op list, cross-linked by selects/concats/resizes,
   plus a memory with two write ports and both kinds of read *)
let build_mixed ops =
  let m = Mem.create ~name:"m" ~size:16 ~width:8 () in
  let a = input "a" 8 and b = input "b" 70 and c = input "c" 8 in
  (* registers fed by an input directly and by another register *)
  let ra = reg a -- "ra" in
  let p8 =
    ref [ a; c; of_int ~width:8 129; reg (a ^: c) -- "r8"; ra; reg ra -- "rra" ]
  in
  let p70 =
    ref [ b; uresize a 70; of_int ~width:70 12345; reg b -- "r70" ]
  in
  let pick p i = List.nth !p (i mod List.length !p) in
  List.iteri
    (fun k (op, i, j) ->
      let x8 = pick p8 i and y8 = pick p8 j in
      let x70 = pick p70 i and y70 = pick p70 j in
      match op mod 17 with
      | 0 -> p8 := !p8 @ [ x8 +: y8 ]
      | 1 -> p70 := !p70 @ [ x70 -: y70 ]
      | 2 -> p8 := !p8 @ [ x8 *: y8 ]
      | 3 -> p70 := !p70 @ [ x70 *: y70 ]
      | 4 -> p8 := !p8 @ [ lnot (x8 &: y8) ]
      | 5 -> p70 := !p70 @ [ x70 ^: (y70 |: x70) ]
      | 6 -> p8 := !p8 @ [ sll x8 (j mod 10) ] (* k may exceed the width *)
      | 7 -> p8 := !p8 @ [ sra x8 (j mod 10) ]
      | 8 -> p70 := !p70 @ [ srl x70 (j mod 80) ]
      | 9 ->
          let lo = j mod 62 in
          p8 := !p8 @ [ select x70 ~hi:(lo + 7) ~lo ]
      | 10 -> p70 := !p70 @ [ concat [ select y70 ~hi:61 ~lo:0; x8 ] ]
      | 11 ->
          p8 :=
            !p8 @ [ mux (select x8 ~hi:1 ~lo:0) [ x8; y8; x8 ^: y8; x8 +: y8 ] ]
      | 12 ->
          p8 :=
            !p8
            @ [
                reg ~enable:(bit x8 0) ~clear:(bit y8 1)
                  ~init:(Bits.of_int ~width:8 7)
                  (x8 |: y8)
                -- Printf.sprintf "q%d" k;
              ]
      | 13 ->
          p8 := !p8 @ [ uresize (x8 <: y8) 8 ];
          p70 := !p70 @ [ uresize (x70 ==: y70) 70 ]
      | 14 ->
          (* sign extensions: narrow, from narrow into the 70-bit pool,
             and from a wide source (through a 100-bit intermediate) *)
          p8 := !p8 @ [ sext (select x8 ~hi:(j mod 7) ~lo:0) 8 ];
          p70 :=
            !p70
            @ [ sext x8 70; select (sext x70 100) ~hi:(69 + (i mod 31)) ~lo:(i mod 31) ]
      | 15 ->
          (* repeats: one bit (narrow and wide) and a 2-bit pattern *)
          p8 := !p8 @ [ repeat (bit x8 (j mod 8)) 8; repeat (select y8 ~hi:1 ~lo:0) 4 ];
          p70 := !p70 @ [ repeat (bit x70 (j mod 70)) 70 ]
      | _ -> p8 := !p8 @ [ reg x8 -- Printf.sprintf "d%d" k; reg (reg y8) ])
    ops;
  let last p = List.nth !p (List.length !p - 1) in
  let wa = select (last p8) ~hi:3 ~lo:0 in
  Mem.write m ~enable:(bit (pick p8 1) 0) ~addr:wa ~data:(pick p8 2);
  Mem.write m ~enable:(bit (pick p8 3) 1) ~addr:wa ~data:(pick p8 4);
  let ra = select (pick p8 5) ~hi:3 ~lo:0 in
  Circuit.create ~name:"rand"
    ~outputs:
      [
        ("o8", last p8);
        ("o70", last p70);
        ("m_async", Mem.read_async m ~addr:ra);
        ("m_sync", Mem.read_sync m ~enable:(bit (pick p8 6) 2) ~addr:ra ());
      ]

(* drive both backends with identical random stimulus, a fresh value on
   every input every cycle; compare every output and every memory word
   on every cycle *)
let lockstep ~cycles ~seed circuit =
  let st = Random.State.make [| seed |] in
  Sim.lockstep circuit ~cycles ~stimulus:(fun _ ->
      List.map
        (fun (n, w) -> (n, Sim.random_bits st w))
        (Circuit.inputs circuit))
  = Ok ()

let gen_mixed =
  QCheck.Gen.(
    pair (list_size (3 -- 30) (triple (0 -- 16) small_nat small_nat)) nat)

let prop_lockstep =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"compiled backend bit-identical to interpreter"
       (QCheck.make gen_mixed)
       (fun (ops, seed) -> lockstep ~cycles:25 ~seed (build_mixed ops)))

(* interleaved order: one random script of simulator calls run on both
   backends. Drives re-send the current value of some inputs, so the
   compiled backend's "input unchanged" path is taken; backdoor memory
   writes, settles, observations and clock edges come in any order. Every
   observation compares the observed value, every output and every
   memory word. Script indices are reduced modulo the circuit's inputs,
   outputs, signals and memories. *)
let interleaved ~seed script circuit =
  let st = Random.State.make [| seed |] in
  let si = Cyclesim.create circuit and sc = Compile.create circuit in
  let inputs = Circuit.inputs circuit and outputs = Circuit.outputs circuit in
  let signals = Array.of_list (Circuit.signals_in_topo_order circuit) in
  let mems = Array.of_list (Circuit.memories circuit) in
  let driven = Hashtbl.create 8 in
  let ok = ref true in
  let agree a b = if not (Bits.equal a b) then ok := false in
  let observe () =
    List.iter
      (fun (n, _) -> agree (Cyclesim.output si n) (Compile.output sc n))
      outputs;
    Array.iter
      (fun m ->
        for a = 0 to mem_size m - 1 do
          agree (Cyclesim.read_memory si m a) (Compile.read_memory sc m a)
        done)
      mems
  in
  List.iter
    (fun (op, k) ->
      match op with
      | 0 ->
          List.iter
            (fun (n, w) ->
              if Random.State.bool st then begin
                let v =
                  match Hashtbl.find_opt driven n with
                  | Some v when Random.State.int st 3 > 0 -> v
                  | _ -> Sim.random_bits st w
                in
                Hashtbl.replace driven n v;
                Cyclesim.set_input si n v;
                Compile.set_input sc n v
              end)
            inputs
      | 1 ->
          Cyclesim.settle si;
          Compile.settle sc
      | 2 ->
          let n, _ = List.nth outputs (k mod List.length outputs) in
          agree (Cyclesim.output si n) (Compile.output sc n);
          observe ()
      | 3 ->
          let g = signals.(k mod Array.length signals) in
          agree (Cyclesim.peek si g) (Compile.peek sc g);
          observe ()
      | 4 when mems <> [||] ->
          let m = mems.(k mod Array.length mems) in
          let a = Random.State.int st (mem_size m) in
          (* sometimes rewrite the word it already holds *)
          let v =
            if Random.State.bool st then Cyclesim.read_memory si m a
            else Sim.random_bits st (mem_width m)
          in
          Cyclesim.write_memory si m a v;
          Compile.write_memory sc m a v
      | _ ->
          Cyclesim.step si;
          Compile.step sc)
    script;
  observe ();
  !ok

let gen_script = QCheck.Gen.(list_size (10 -- 60) (pair (0 -- 5) small_nat))

let prop_interleaved =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"interleaved calls agree with the interpreter"
       (QCheck.make QCheck.Gen.(pair gen_mixed gen_script))
       (fun ((ops, seed), script) -> interleaved ~seed script (build_mixed ops)))

let bundled_kernels () =
  List.concat_map
    (fun (config : Beethoven.Config.t) ->
      List.filter_map
        (fun (sys : Beethoven.Config.system) -> sys.Beethoven.Config.kernel_circuit)
        config.Beethoven.Config.systems)
    [
      Attention.A3_rtl_core.config ~n_cores:1 ();
      Kernels.Vecadd_rtl.config ~n_cores:1 ();
    ]

(* bundled designs: every kernel circuit in the beethoven_gen table runs
   both backends in lockstep (the same check `beethoven_gen sim
   --backend both` and the @simspeed gate run from the CLI) *)
let test_bundled_lockstep () =
  List.iter
    (fun c ->
      check_bool (Circuit.name c ^ " lockstep clean") true
        (lockstep ~cycles:64 ~seed:7 c))
    (bundled_kernels ())

let prop_bundled_interleaved =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12
       ~name:"bundled kernels: interleaved calls agree"
       (QCheck.make QCheck.Gen.(pair gen_script nat))
       (fun (script, seed) ->
         List.for_all (interleaved ~seed script) (bundled_kernels ())))

let () =
  Alcotest.run "compile"
    [
      ( "fast-path",
        [
          Alcotest.test_case "arithmetic" `Quick test_fast_arith;
          Alcotest.test_case "62-bit boundary" `Quick test_fast_near_63_bits;
          Alcotest.test_case "shifts and saturation" `Quick test_fast_shifts;
          Alcotest.test_case "mux clamp" `Quick test_mux_clamp;
        ] );
      ( "wide-path",
        [
          Alcotest.test_case "wide operators" `Quick test_wide_ops;
          Alcotest.test_case "fast/wide boundary" `Quick test_cross_boundary;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "reg enable/clear" `Quick test_reg_enable_clear;
          Alcotest.test_case "reg read-before-write" `Quick
            test_reg_read_before_write;
          Alcotest.test_case "memory semantics" `Quick test_memory_semantics;
          Alcotest.test_case "wide memory" `Quick test_wide_memory;
          Alcotest.test_case "sync read after port write" `Quick
            test_sync_read_after_port_write;
          Alcotest.test_case "sync read after backdoor write" `Quick
            test_sync_read_after_backdoor_write;
          Alcotest.test_case "reg held by enable" `Quick test_reg_held_by_enable;
          Alcotest.test_case "reg clear held high" `Quick
            test_reg_clear_held_high;
          Alcotest.test_case "peek fused sext" `Quick test_peek_fused_sext;
          Alcotest.test_case "foreign handle refused" `Quick
            test_foreign_handle_refused;
        ] );
      ( "diagnosability",
        [
          Alcotest.test_case "unconnected wire named" `Quick
            test_unconnected_wire_rejected;
        ] );
      ("dispatch", [ Alcotest.test_case "Hw.Sim" `Quick test_sim_dispatch ]);
      ( "differential",
        [
          prop_lockstep;
          Alcotest.test_case "bundled kernels lockstep" `Quick
            test_bundled_lockstep;
          prop_interleaved;
          prop_bundled_interleaved;
        ] );
    ]
