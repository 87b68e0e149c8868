(* Tests for the RTL DSL: signal construction, circuit checking, the cycle
   simulator, and Verilog emission. Includes a small state-machine design
   (an accumulating vector-add datapath) exercised end to end. *)

open Hw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sim_of outputs = Cyclesim.create (Circuit.create ~name:"t" ~outputs)

let test_comb_ops () =
  let a = Signal.input "a" 8 and b = Signal.input "b" 8 in
  let open Signal in
  let sim =
    sim_of
      [
        ("sum", a +: b);
        ("diff", a -: b);
        ("prod", a *: b);
        ("and_", a &: b);
        ("or_", a |: b);
        ("xor_", a ^: b);
        ("eq", a ==: b);
        ("lt", a <: b);
        ("not_a", lnot a);
      ]
  in
  Cyclesim.set_input_int sim "a" 200;
  Cyclesim.set_input_int sim "b" 100;
  check_int "sum wraps" ((200 + 100) land 255) (Cyclesim.output_int sim "sum");
  check_int "diff" 100 (Cyclesim.output_int sim "diff");
  check_int "prod" (200 * 100 land 255) (Cyclesim.output_int sim "prod");
  check_int "and" (200 land 100) (Cyclesim.output_int sim "and_");
  check_int "or" (200 lor 100) (Cyclesim.output_int sim "or_");
  check_int "xor" (200 lxor 100) (Cyclesim.output_int sim "xor_");
  check_int "eq" 0 (Cyclesim.output_int sim "eq");
  check_int "lt" 0 (Cyclesim.output_int sim "lt");
  check_int "not" (Stdlib.lnot 200 land 255) (Cyclesim.output_int sim "not_a")

let test_mux_select_concat () =
  let open Signal in
  let sel = input "sel" 2 in
  let cases = List.map (of_int ~width:8) [ 10; 20; 30 ] in
  let sim =
    sim_of
      [
        ("m", mux sel cases);
        ("hi", select (of_int ~width:8 0xab) ~hi:7 ~lo:4);
        ("cat", concat [ of_int ~width:4 0xa; of_int ~width:4 0xb ]);
        ("rz", uresize (of_int ~width:4 0xf) 8);
      ]
  in
  Cyclesim.set_input_int sim "sel" 0;
  check_int "mux 0" 10 (Cyclesim.output_int sim "m");
  Cyclesim.set_input_int sim "sel" 2;
  check_int "mux 2" 30 (Cyclesim.output_int sim "m");
  Cyclesim.set_input_int sim "sel" 3;
  check_int "mux clamps" 30 (Cyclesim.output_int sim "m");
  check_int "select" 0xa (Cyclesim.output_int sim "hi");
  check_int "concat" 0xab (Cyclesim.output_int sim "cat");
  check_int "uresize" 0xf (Cyclesim.output_int sim "rz")

let test_register () =
  let open Signal in
  let d = input "d" 8 and en = input "en" 1 in
  let q = reg ~enable:en d in
  let sim = sim_of [ ("q", q) ] in
  Cyclesim.set_input_int sim "d" 42;
  Cyclesim.set_input_int sim "en" 1;
  check_int "before edge" 0 (Cyclesim.output_int sim "q");
  Cyclesim.step sim;
  check_int "after edge" 42 (Cyclesim.output_int sim "q");
  Cyclesim.set_input_int sim "d" 7;
  Cyclesim.set_input_int sim "en" 0;
  Cyclesim.step sim;
  check_int "enable low holds" 42 (Cyclesim.output_int sim "q")

let test_counter_feedback () =
  let open Signal in
  let count = wire 8 in
  assign count (reg (count +: of_int ~width:8 1));
  let sim = sim_of [ ("c", count) ] in
  for _ = 1 to 300 do
    Cyclesim.step sim
  done;
  check_int "wraps mod 256" (300 mod 256) (Cyclesim.output_int sim "c");
  check_int "cycle count" 300 (Cyclesim.cycle sim)

let test_clear_priority () =
  let open Signal in
  let clr = input "clr" 1 in
  let q =
    let w = wire 4 in
    let q = reg ~clear:clr ~init:(Bits.of_int ~width:4 9) w in
    assign w (q +: of_int ~width:4 1);
    q
  in
  let sim = sim_of [ ("q", q) ] in
  Cyclesim.set_input_int sim "clr" 0;
  check_int "init value" 9 (Cyclesim.output_int sim "q");
  Cyclesim.step sim;
  check_int "counts" 10 (Cyclesim.output_int sim "q");
  Cyclesim.set_input_int sim "clr" 1;
  Cyclesim.step sim;
  check_int "clear wins" 9 (Cyclesim.output_int sim "q")

let test_memory_read_first () =
  let open Signal in
  let mem = Mem.create ~size:16 ~width:8 () in
  let we = input "we" 1 and addr = input "addr" 4 and data = input "data" 8 in
  Mem.write mem ~enable:we ~addr ~data;
  let async = Mem.read_async mem ~addr in
  let sync = Mem.read_sync mem ~addr () in
  let sim = sim_of [ ("async", async); ("sync", sync) ] in
  Cyclesim.set_input_int sim "we" 1;
  Cyclesim.set_input_int sim "addr" 3;
  Cyclesim.set_input_int sim "data" 77;
  check_int "async pre-write" 0 (Cyclesim.output_int sim "async");
  Cyclesim.step sim;
  (* write committed; sync port latched the OLD value (read-first) *)
  check_int "sync is read-first" 0 (Cyclesim.output_int sim "sync");
  check_int "async sees write" 77 (Cyclesim.output_int sim "async");
  Cyclesim.step sim;
  check_int "sync one cycle later" 77 (Cyclesim.output_int sim "sync")

let test_memory_backdoor () =
  let open Signal in
  let mem = Mem.create ~size:8 ~width:16 () in
  let addr = input "addr" 3 in
  let out = Mem.read_async mem ~addr in
  let circuit = Circuit.create ~name:"m" ~outputs:[ ("out", out) ] in
  let sim = Cyclesim.create circuit in
  Cyclesim.write_memory sim mem 5 (Bits.of_int ~width:16 1234);
  Cyclesim.set_input_int sim "addr" 5;
  check_int "backdoor write visible" 1234 (Cyclesim.output_int sim "out");
  check_int "backdoor read" 1234 (Bits.to_int (Cyclesim.read_memory sim mem 5))

let test_dangling_wire_rejected () =
  let open Signal in
  let w = wire 4 in
  let raised =
    try
      ignore (Circuit.create ~name:"bad" ~outputs:[ ("o", w) ]);
      false
    with Failure m -> String.length m > 0
  in
  check_bool "dangling wire rejected" true raised

let test_comb_loop_rejected () =
  let open Signal in
  let w = wire 4 in
  assign w (w +: of_int ~width:4 1);
  let raised =
    try
      ignore (Circuit.create ~name:"loop" ~outputs:[ ("o", w) ]);
      false
    with Failure m ->
      String.length m > 0
      && String.sub m 0 30 = "Circuit.create: combinational "
  in
  check_bool "comb loop rejected" true raised

let test_reg_breaks_loop () =
  let open Signal in
  (* feedback through a register is legal *)
  let q = wire 8 in
  assign q (reg (q +: of_int ~width:8 3));
  let c = Circuit.create ~name:"ok" ~outputs:[ ("q", q) ] in
  check_int "one register" 1 (List.length (Circuit.registers c))

let test_circuit_introspection () =
  let open Signal in
  let a = input "a" 8 in
  let q = reg a in
  let mem = Mem.create ~size:4 ~width:8 () in
  Mem.write mem ~enable:vdd ~addr:(of_int ~width:2 0) ~data:a;
  let r = Mem.read_sync mem ~addr:(of_int ~width:2 0) () in
  let c = Circuit.create ~name:"x" ~outputs:[ ("q", q); ("r", r) ] in
  check_int "inputs" 1 (List.length (Circuit.inputs c));
  check_int "memories" 1 (List.length (Circuit.memories c));
  check_int "sync reads" 1 (List.length (Circuit.sync_reads c))

(* A small but real datapath: streaming accumulator with valid/ready-less
   enable, the shape of the paper's Fig. 2 vector-add core. *)
let test_stream_accumulator () =
  let open Signal in
  let in_valid = input "in_valid" 1 in
  let in_data = input "in_data" 32 in
  let addend = input "addend" 32 in
  let out_data = reg ~enable:in_valid (in_data +: addend) in
  let count = wire 16 in
  assign count (reg ~enable:in_valid (count +: of_int ~width:16 1));
  let sim = sim_of [ ("out", out_data); ("count", count) ] in
  Cyclesim.set_input_int sim "addend" 1000;
  let results = ref [] in
  List.iteri
    (fun i v ->
      Cyclesim.set_input_int sim "in_valid" (if v >= 0 then 1 else 0);
      Cyclesim.set_input_int sim "in_data" (abs v);
      Cyclesim.step sim;
      if v >= 0 then results := Cyclesim.output_int sim "out" :: !results;
      ignore i)
    [ 1; 2; -3; 4 ];
  Alcotest.(check (list int))
    "stream outputs" [ 1001; 1002; 1004 ] (List.rev !results);
  check_int "count only on valid" 3 (Cyclesim.output_int sim "count")

let test_verilog_emission () =
  let open Signal in
  let a = input "a" 8 and b = input "b" 8 in
  let mem = Mem.create ~name:"spad" ~size:16 ~width:8 () in
  Mem.write mem ~enable:vdd ~addr:(of_int ~width:4 1) ~data:a;
  let sum = reg (a +: b) -- "sum_r" in
  let rd = Mem.read_sync mem ~addr:(of_int ~width:4 1) () in
  let c = Circuit.create ~name:"vadd" ~outputs:[ ("sum", sum); ("rd", rd) ] in
  let v = Verilog.of_circuit c in
  let has s =
    let n = String.length s and m = String.length v in
    let rec go i = i + n <= m && (String.sub v i n = s || go (i + 1)) in
    go 0
  in
  check_bool "module header" true (has "module vadd");
  check_bool "declares inputs" true (has "input [7:0] a;");
  check_bool "always block" true (has "always @(posedge clk)");
  check_bool "memory declared" true (has "reg [7:0] spad [0:15];");
  check_bool "named register" true (has "sum_r");
  check_bool "endmodule" true (has "endmodule")

(* An unnamed memory is numbered past every name already declared: here
   a memory named "mem_0" and signals named "mem" (emitted "mem_<i>")
   take the names it would have had. Every identifier the module
   declares is distinct. *)
let test_verilog_memory_names () =
  let open Signal in
  let a = input "a" 4 in
  let chain =
    List.fold_left
      (fun acc k -> (acc +: of_int ~width:4 k) -- "mem")
      a (List.init 6 Fun.id)
  in
  let named = Mem.create ~name:"mem_0" ~size:16 ~width:4 () in
  let anon1 = Mem.create ~size:16 ~width:4 () in
  let anon2 = Mem.create ~size:16 ~width:4 () in
  List.iter
    (fun m -> Mem.write m ~enable:vdd ~addr:a ~data:chain)
    [ named; anon1; anon2 ];
  let outputs =
    List.mapi
      (fun i m -> (Printf.sprintf "o%d" i, Mem.read_async m ~addr:chain))
      [ named; anon1; anon2 ]
  in
  let v = Verilog.of_circuit (Circuit.create ~name:"mems" ~outputs) in
  let declared =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | ("input" | "output" | "wire" | "reg") :: rest -> (
            let rest =
              List.filter (fun w -> w <> "" && w.[0] <> '[') rest
            in
            match rest with
            | name :: _ ->
                Some (String.concat "" (String.split_on_char ';' name))
            | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' v)
  in
  let unique = List.sort_uniq compare declared in
  check_int "every declared name is distinct" (List.length declared)
    (List.length unique);
  check_bool "the named memory keeps its name" true
    (List.mem "mem_0" declared);
  check_int "three memories declared" 3
    (List.length
       (List.filter
          (fun line ->
            let n = String.length line in
            n > 7 && String.sub line (n - 7) 7 = "[0:15];")
          (String.split_on_char '\n' v)))

(* property: a registered adder pipeline computes the same as a delayed
   functional model, for random input streams *)
let prop_pipeline =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"2-stage pipeline matches delayed model"
       QCheck.(list_of_size Gen.(5 -- 40) (pair (int_bound 0xffff) (int_bound 0xffff)))
       (fun stream ->
         let open Signal in
         let a = input "a" 16 and b = input "b" 16 in
         let s1 = reg (uresize a 17 +: uresize b 17) in
         let s2 = reg s1 in
         let sim =
           Cyclesim.create (Circuit.create ~name:"p" ~outputs:[ ("o", s2) ])
         in
         let expect = ref [] and got = ref [] in
         List.iteri
           (fun i (x, y) ->
             Cyclesim.set_input_int sim "a" x;
             Cyclesim.set_input_int sim "b" y;
             Cyclesim.step sim;
             expect := (x + y) :: !expect;
             (* reading after the i-th edge, s2 holds the sum of inputs i-1 *)
             if i >= 1 then got := Cyclesim.output_int sim "o" :: !got)
           stream;
         (* got.(i) should equal expect delayed by 2 *)
         let expect = List.rev !expect and got = List.rev !got in
         List.for_all2
           (fun e g -> e = g)
           (List.filteri (fun i _ -> i < List.length got) expect)
           got))

let () =
  Alcotest.run "hw"
    [
      ( "comb",
        [
          Alcotest.test_case "operators" `Quick test_comb_ops;
          Alcotest.test_case "mux/select/concat" `Quick test_mux_select_concat;
        ] );
      ( "seq",
        [
          Alcotest.test_case "register" `Quick test_register;
          Alcotest.test_case "counter feedback" `Quick test_counter_feedback;
          Alcotest.test_case "clear priority" `Quick test_clear_priority;
          Alcotest.test_case "stream accumulator" `Quick test_stream_accumulator;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read-first" `Quick test_memory_read_first;
          Alcotest.test_case "backdoor" `Quick test_memory_backdoor;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "dangling wire" `Quick test_dangling_wire_rejected;
          Alcotest.test_case "comb loop" `Quick test_comb_loop_rejected;
          Alcotest.test_case "reg breaks loop" `Quick test_reg_breaks_loop;
          Alcotest.test_case "introspection" `Quick test_circuit_introspection;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "emission" `Quick test_verilog_emission;
          Alcotest.test_case "memory names" `Quick test_verilog_memory_names;
        ] );
      ("properties", [ prop_pipeline ]);
    ]
