(* Static analyzer tests: a seeded-defect corpus (one minimal design per
   rule, asserting the exact rule id), the construction-time hardening of
   Signal.mux / Signal.Mem addresses, the diagnostics framework policy
   knobs, a qcheck property (well-formed random circuits produce no error
   diagnostics), and the acceptance bar: every bundled design passes the
   composer DRC with zero errors. *)

open Hw.Signal
module Diag = Hw.Diag
module Lint = Hw.Lint
module B = Beethoven
module C = B.Config
module D = Platform.Device

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rule_ids ds = List.map (fun (d : Diag.t) -> d.Diag.rule) ds
let has_rule r ds = List.mem r (rule_ids ds)

let check_has_rule r ds =
  check_bool
    (Printf.sprintf "emits %s (got: %s)" r (String.concat ", " (rule_ids ds)))
    true (has_rule r ds)

let no_errors what ds =
  check_string
    (what ^ " has no error diagnostics")
    ""
    (String.concat "; "
       (List.map (fun (d : Diag.t) -> d.Diag.message) (Diag.errors ds)))

(* ---- seeded netlist defects, one per lint rule ---- *)

let test_undriven_wire () =
  let w = wire 4 -- "dangling" in
  let ds = Lint.graph ~name:"t" [ ("o", w +: of_int ~width:4 1) ] in
  check_has_rule "undriven-wire" ds;
  let d = List.hd (Diag.errors ds) in
  (* the diagnostic names the consumer, not just the wire *)
  check_bool "mentions consumer context" true
    (String.length d.Diag.message > 0 && d.Diag.loc <> None)

let test_comb_loop_soft () =
  let w = wire 4 -- "loop_w" in
  let x = w +: of_int ~width:4 1 in
  assign w x;
  let ds = Lint.graph ~name:"t" [ ("o", x) ] in
  check_has_rule "comb-loop" ds;
  let d = List.hd (Diag.errors ds) in
  check_bool "cycle path names the wire" true
    (let msg = d.Diag.message in
     let contains sub =
       let n = String.length sub and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     contains "loop_w" && contains "->" && contains "add")

let test_dup_output () =
  let a = of_int ~width:2 1 in
  check_has_rule "dup-output-port"
    (Lint.graph ~name:"t" [ ("o", a); ("o", a) ])

let test_no_outputs () =
  check_has_rule "no-outputs" (Lint.graph ~name:"t" [])

let test_input_width_conflict () =
  let a = input "x" 8 and b = input "x" 4 in
  check_has_rule "input-width-conflict"
    (Lint.graph ~name:"t" [ ("o", concat [ a; uresize b 8 ]) ])

let test_dead_logic () =
  let (outs, tracked) =
    tracking (fun () ->
        let live = input "a" 4 in
        let _dead = reg (of_int ~width:4 0) -- "orphan_reg" in
        [ ("o", live +: of_int ~width:4 1) ])
  in
  let ds = Lint.graph ~tracked ~name:"t" outs in
  check_has_rule "dead-logic" ds;
  (* live logic must not be flagged *)
  check_int "exactly one dead-logic diagnostic" 1
    (List.length (List.filter (fun r -> r = "dead-logic") (rule_ids ds)))

let test_mux_sel_wide () =
  let sel = input "sel" 4 in
  let ds =
    Lint.graph ~name:"t"
      [ ("o", mux sel [ of_int ~width:8 1; of_int ~width:8 2 ]) ]
  in
  check_has_rule "mux-sel-wide" ds

let test_async_read_mapping () =
  let m = Mem.create ~name:"big" ~size:2048 ~width:8 () in
  Mem.write m ~enable:vdd ~addr:(input "wa" 11) ~data:(input "wd" 8);
  let ds =
    Lint.graph ~name:"t" [ ("o", Mem.read_async m ~addr:(input "ra" 11)) ]
  in
  check_has_rule "async-read-mapping" ds;
  (* a small memory may stay async: it maps to LUTRAM *)
  let s = Mem.create ~name:"small" ~size:16 ~width:8 () in
  Mem.write s ~enable:vdd ~addr:(input "swa" 4) ~data:(input "swd" 8);
  let ds2 =
    Lint.graph ~name:"t" [ ("o", Mem.read_async s ~addr:(input "sra" 4)) ]
  in
  check_bool "LUTRAM-sized async read is fine" false
    (has_rule "async-read-mapping" ds2)

let test_mem_addr_wide () =
  let m = Mem.create ~name:"m" ~size:16 ~width:8 () in
  Mem.write m ~enable:vdd ~addr:(input "wa" 8) ~data:(input "wd" 8);
  let ds =
    Lint.graph ~name:"t"
      [ ("o", Mem.read_sync m ~addr:(input "ra" 4) ()) ]
  in
  check_has_rule "mem-addr-wide" ds

let test_write_port_overlap () =
  let m = Mem.create ~name:"m" ~size:16 ~width:8 () in
  let addr = input "a" 4 and data = input "d" 8 in
  Mem.write m ~enable:(input "e1" 1) ~addr ~data;
  Mem.write m ~enable:(input "e2" 1) ~addr ~data;
  let ds =
    Lint.graph ~name:"t" [ ("o", Mem.read_sync m ~addr ()) ]
  in
  check_has_rule "write-port-overlap" ds;
  (* complementary enables are provably exclusive *)
  let m2 = Mem.create ~name:"m2" ~size:16 ~width:8 () in
  let e = input "e" 1 in
  Mem.write m2 ~enable:e ~addr ~data;
  Mem.write m2 ~enable:(lnot e) ~addr ~data;
  let ds2 = Lint.graph ~name:"t" [ ("o", Mem.read_sync m2 ~addr ()) ] in
  check_bool "complementary enables do not overlap" false
    (has_rule "write-port-overlap" ds2);
  (* FSM idiom: (state == K1) vs (state == K2) *)
  let m3 = Mem.create ~name:"m3" ~size:16 ~width:8 () in
  let st = input "st" 2 in
  Mem.write m3 ~enable:(st ==: of_int ~width:2 0) ~addr ~data;
  Mem.write m3 ~enable:(st ==: of_int ~width:2 1) ~addr ~data;
  let ds3 = Lint.graph ~name:"t" [ ("o", Mem.read_sync m3 ~addr ()) ] in
  check_bool "distinct FSM states do not overlap" false
    (has_rule "write-port-overlap" ds3)

let test_unnamed_state () =
  let ds = Lint.graph ~name:"t" [ ("o", reg (input "a" 4)) ] in
  check_has_rule "unnamed-state" ds;
  let ds2 = Lint.graph ~name:"t" [ ("o", reg (input "a" 4) -- "q") ] in
  check_bool "named register is fine" false (has_rule "unnamed-state" ds2)

let test_const_foldable () =
  let ds =
    Lint.graph ~name:"t"
      [ ("o", (of_int ~width:8 3 +: of_int ~width:8 4) &: input "a" 8) ]
  in
  check_has_rule "const-foldable" ds

(* every rule id emitted above must be declared in the catalog *)
let test_rule_catalog () =
  let declared = List.map (fun (id, _, _) -> id) Lint.rules in
  List.iter
    (fun id -> check_bool ("catalog declares " ^ id) true (List.mem id declared))
    [
      "undriven-wire"; "comb-loop"; "dup-output-port"; "no-outputs";
      "input-width-conflict"; "dead-logic"; "mux-sel-wide";
      "async-read-mapping"; "mem-addr-wide"; "write-port-overlap";
      "unnamed-state"; "const-foldable"; "read-before-init"; "const-output";
      "dead-mux-arm"; "redundant-reset"; "dataflow-opt-divergence";
    ]

(* ---- value-aware rules: Hw.Dataflow over Hw.Levelize ---- *)

module Levelize = Hw.Levelize
module Dataflow = Hw.Dataflow
module Sta = Hw.Sta
module Cyclesim = Hw.Cyclesim

let test_read_before_init () =
  (* a memory the circuit never writes can never be initialized by it *)
  let rom = Mem.create ~name:"rom" ~size:16 ~width:8 () in
  let ds =
    Lint.graph ~name:"t" [ ("o", Mem.read_async rom ~addr:(input "a" 4)) ]
  in
  check_has_rule "read-before-init" ds;
  (* a memory with a defined write port is assumed initialized by it *)
  let ram = Mem.create ~name:"ram" ~size:16 ~width:8 () in
  Mem.write ram ~enable:(input "we" 1) ~addr:(input "wa" 4)
    ~data:(input "wd" 8);
  let ds2 =
    Lint.graph ~name:"t" [ ("o", Mem.read_async ram ~addr:(input "a" 4)) ]
  in
  check_bool "written memory reads are defined" false
    (has_rule "read-before-init" ds2);
  (* the constant mask: x & 0 is 0 whatever x was *)
  let rom2 = Mem.create ~name:"rom2" ~size:16 ~width:8 () in
  let ds3 =
    Lint.graph ~name:"t"
      [ ("o", Mem.read_async rom2 ~addr:(input "a" 4) &: zero 8) ]
  in
  check_bool "constant-masked X is defined" false
    (has_rule "read-before-init" ds3)

let test_read_before_init_write_enable () =
  (* an X-derived write enable can corrupt arbitrary addresses *)
  let rom = Mem.create ~name:"rom" ~size:16 ~width:8 () in
  let tainted = bit (Mem.read_async rom ~addr:(input "ra" 4)) 0 in
  let ram = Mem.create ~name:"ram" ~size:16 ~width:8 () in
  Mem.write ram ~enable:tainted ~addr:(input "wa" 4) ~data:(input "wd" 8);
  let ds =
    Lint.graph ~name:"t" [ ("o", Mem.read_sync ram ~addr:(input "a" 4) ()) ]
  in
  check_has_rule "read-before-init" ds

let test_const_output () =
  (* all arms equal: stronger than Opt's folder, which needs a const sel *)
  let c7 = of_int ~width:8 7 in
  let ds = Lint.graph ~name:"t" [ ("o", mux2 (input "s" 1) c7 c7) ] in
  check_has_rule "const-output" ds;
  (* a literal constant output is deliberate, not a bug *)
  let ds2 = Lint.graph ~name:"t" [ ("o", of_int ~width:8 7) ] in
  check_bool "literal constant output not flagged" false
    (has_rule "const-output" ds2);
  (* an input-driven output is not constant *)
  let ds3 = Lint.graph ~name:"t" [ ("o", input "x" 8) ] in
  check_bool "input-driven output not flagged" false
    (has_rule "const-output" ds3)

let test_dead_mux_arm () =
  (* selector provably 0 without being syntactically a constant *)
  let sel = input "s" 1 &: gnd in
  let ds =
    Lint.graph ~name:"t" [ ("o", mux2 sel (input "x" 8) (input "y" 8)) ]
  in
  check_has_rule "dead-mux-arm" ds;
  let ds2 =
    Lint.graph ~name:"t"
      [ ("o", mux2 (input "s2" 1) (input "x" 8) (input "y" 8)) ]
  in
  check_bool "live mux not flagged" false (has_rule "dead-mux-arm" ds2)

let test_redundant_reset () =
  let q = reg ~clear:(input "clr" 1) ~init:(Bits.zero 8) (zero 8) -- "q" in
  let ds = Lint.graph ~name:"t" [ ("o", q |: input "m" 8) ] in
  check_has_rule "redundant-reset" ds;
  check_bool "redundant-reset is info severity" true
    (List.for_all
       (fun (d : Diag.t) ->
         d.Diag.rule <> "redundant-reset" || d.Diag.severity = Diag.Info)
       ds);
  (* a register whose data can differ from init needs its reset *)
  let q2 = reg ~clear:(input "clr2" 1) ~init:(Bits.zero 8) (input "d" 8) in
  let ds2 = Lint.graph ~name:"t" [ ("o", q2) ] in
  check_bool "useful reset not flagged" false (has_rule "redundant-reset" ds2)

let test_dataflow_values () =
  let x = input "x" 8 in
  let held = reg ~init:(Bits.of_int ~width:8 5) (of_int ~width:8 5) -- "held" in
  let counter = wire 8 in
  assign counter (reg (counter +: of_int ~width:8 1) -- "ctr");
  let c =
    Hw.Circuit.create ~name:"df"
      ~outputs:[ ("held", held); ("ctr", counter); ("x", x) ]
  in
  let df = Dataflow.run (Levelize.of_circuit c) in
  check_bool "reg holding its init is Const" true
    (match Dataflow.value_of df held with
    | Dataflow.Const b -> Bits.to_int b = 5
    | _ -> false);
  check_bool "counter is Top (value varies across cycles)" true
    (Dataflow.value_of df counter = Dataflow.Top);
  check_bool "input is Top" true (Dataflow.value_of df x = Dataflow.Top);
  check_bool "no X without memories (registers always have init)" true
    (List.for_all
       (fun s -> not (Dataflow.is_x df s))
       (Hw.Circuit.signals_in_topo_order c))

(* ---- Hw.Levelize ---- *)

let test_levelize_basic () =
  let a = input "a" 8 and b = input "b" 8 in
  let s = (a +: b) -- "s" in
  let q = reg s -- "q" in
  let o = s &: q in
  let c = Hw.Circuit.create ~name:"lv" ~outputs:[ ("o", o) ] in
  let lv = Levelize.of_circuit c in
  let node s = (Levelize.nodes lv).(Levelize.slot_of lv s) in
  check_int "n_nodes matches topo"
    (List.length (Hw.Circuit.signals_in_topo_order c))
    (Levelize.n_nodes lv);
  check_int "input is a source" 0 (node a).Levelize.n_level;
  check_int "reg is a source" 0 (node q).Levelize.n_level;
  check_int "add above its operands" 1 (node s).Levelize.n_level;
  check_int "and above the add" 2 (node o).Levelize.n_level;
  check_int "comb depth" 2 (Levelize.comb_depth lv);
  (* slices tile the node array in level-major order *)
  let total = ref 0 in
  for l = 0 to Levelize.n_levels lv - 1 do
    let first, count = Levelize.level_slice lv l in
    check_int (Printf.sprintf "slice %d is contiguous" l) !total first;
    total := !total + count
  done;
  check_int "slices cover every node" (Levelize.n_nodes lv) !total;
  (* fanout of s: the and (comb) plus the reg's d (seq) *)
  check_int "fanout counts comb and seq loads" 2 (node s).Levelize.n_fanout;
  (* hotspots are fanout-descending *)
  let hs = Levelize.hotspots lv ~n:3 in
  check_bool "hotspots sorted by fanout" true
    (let fos = List.map (fun nd -> nd.Levelize.n_fanout) hs in
     List.sort (fun x y -> compare y x) fos = fos)

(* ---- Hw.Sta ---- *)

let deep_chain_circuit n =
  let x = input "x" 32 in
  let acc = ref x in
  for _ = 1 to n do
    acc := !acc +: x
  done;
  Hw.Circuit.create ~name:"deep" ~outputs:[ ("o", !acc) ]

let test_sta_report () =
  let c = deep_chain_circuit 10 in
  let r = Sta.of_circuit c in
  check_int "10 chained adds at 2 per add" 20 r.Sta.r_max_delay;
  check_int "comb depth counts the chain" 10 r.Sta.r_comb_depth;
  check_int "unit model max delay = comb depth" r.Sta.r_comb_depth
    (Sta.of_circuit ~model:Sta.Unit c).Sta.r_max_delay;
  let arrivals = List.map (fun pn -> pn.Sta.pn_arrival) r.Sta.r_worst_path in
  check_bool "worst-path arrivals are monotone" true
    (List.sort compare arrivals = arrivals);
  check_int "worst path ends at the max delay" r.Sta.r_max_delay
    (List.nth arrivals (List.length arrivals - 1));
  check_int "per-output table covers every output" 1
    (List.length r.Sta.r_outputs);
  check_string "report is deterministic" (Sta.to_json r)
    (Sta.to_json (Sta.of_circuit c))

(* ---- construction-time hardening (the linter's error rules cover what
   construction cannot reject; these cover what it now can) ---- *)

let test_mux_narrow_sel_rejected () =
  let sel = input "s" 1 in
  let cases = [ of_int ~width:4 0; of_int ~width:4 1; of_int ~width:4 2 ] in
  (match mux sel cases with
  | _ -> Alcotest.fail "1-bit selector with 3 cases must be rejected"
  | exception Invalid_argument _ -> ());
  (* exactly-fitting selector still works *)
  check_int "2-bit selector reaches 4 cases" 4
    (width (mux (input "s2" 2) [ zero 4; zero 4; zero 4; zero 4 ]))

let test_mem_narrow_addr_rejected () =
  let m = Mem.create ~name:"m" ~size:16 ~width:8 () in
  (match Mem.write m ~enable:vdd ~addr:(input "a" 3) ~data:(input "d" 8) with
  | () -> Alcotest.fail "3-bit address into 16 entries must be rejected"
  | exception Invalid_argument _ -> ());
  (match Mem.read_async m ~addr:(input "ra" 2) with
  | _ -> Alcotest.fail "2-bit read address into 16 entries must be rejected"
  | exception Invalid_argument _ -> ())

let test_comb_loop_hard_path () =
  let w = wire 4 -- "loop_a" in
  let x = (w +: of_int ~width:4 1) -- "loop_b" in
  assign w x;
  match Hw.Circuit.create ~name:"loop" ~outputs:[ ("o", x) ] with
  | _ -> Alcotest.fail "combinational loop must not elaborate"
  | exception Failure msg ->
      let contains sub =
        let n = String.length sub and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      check_bool ("path names loop_a in: " ^ msg) true (contains "loop_a");
      check_bool ("path names loop_b in: " ^ msg) true (contains "loop_b");
      check_bool "path shows the edge direction" true (contains "->")

(* ---- diagnostics framework policy ---- *)

let sample_diags () =
  [
    Diag.make ~rule:"mux-sel-wide" ~severity:Diag.Warning "w1";
    Diag.make ~rule:"comb-loop" ~severity:Diag.Error ~loc:"sig" "e1";
    Diag.make ~rule:"unnamed-state" ~severity:Diag.Info "i1";
  ]

let test_waive () =
  let ds = Diag.waive ~rules:[ "mux-sel-wide"; "unnamed-state" ] (sample_diags ()) in
  check_int "only the error survives" 1 (List.length ds);
  check_string "survivor" "comb-loop" (List.hd ds).Diag.rule

let test_werror () =
  let ds = Diag.promote_warnings (sample_diags ()) in
  check_int "two errors after -Werror" 2 (List.length (Diag.errors ds));
  check_int "info untouched" 1 (Diag.count ds Diag.Info)

let test_sort_order () =
  match Diag.sort (sample_diags ()) with
  | e :: w :: i :: [] ->
      check_string "errors first" "comb-loop" e.Diag.rule;
      check_string "then warnings" "mux-sel-wide" w.Diag.rule;
      check_string "infos last" "unnamed-state" i.Diag.rule
  | _ -> Alcotest.fail "expected three diagnostics"

let test_json () =
  let json = Diag.render_json (sample_diags ()) in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "has diagnostics array" true (contains "\"diagnostics\":[");
  check_bool "has rule" true (contains "\"rule\":\"comb-loop\"");
  check_bool "has loc" true (contains "\"loc\":\"sig\"");
  check_bool "has counts" true (contains "\"errors\":1");
  check_bool "escapes are sane" true (contains "\"severity\":\"warning\"")

(* ---- qcheck: well-formed random circuits never produce error diags ---- *)

let gen_ops = QCheck.Gen.(list_size (1 -- 20) (triple (0 -- 6) small_nat small_nat))

let build_random_circuit ops =
  let pool =
    ref [ input "a" 8; input "b" 8; of_int ~width:8 5; reg (input "c" 8) -- "rc" ]
  in
  let pick i = List.nth !pool (i mod List.length !pool) in
  List.iter
    (fun (op, i, j) ->
      let x = pick i and y = pick j in
      let s =
        match op with
        | 0 -> x +: y
        | 1 -> x -: y
        | 2 -> x &: y
        | 3 -> x |: y
        | 4 -> x ^: y
        | 5 -> reg x -- Printf.sprintf "r%d" (List.length !pool)
        | _ -> mux2 (bit x 0) x y
      in
      pool := !pool @ [ s ])
    ops;
  [ ("o", List.nth !pool (List.length !pool - 1)) ]

let prop_random_clean =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"random well-formed circuits lint clean"
       (QCheck.make gen_ops)
       (fun ops ->
         let (outs, tracked) = tracking (fun () -> build_random_circuit ops) in
         let ds = Lint.graph ~tracked ~name:"rand" outs in
         not (Diag.has_errors ds)))

(* like build_random_circuit, but parameterized over the leaf pool and an
   optional pipelining pass that registers every other derived node *)
let build_ops ~pipeline ~pool0 ops =
  let pool = ref pool0 in
  let pick i = List.nth !pool (i mod List.length !pool) in
  List.iteri
    (fun k (op, i, j) ->
      let x = pick i and y = pick j in
      let s =
        match op with
        | 0 -> x +: y
        | 1 -> x -: y
        | 2 -> x &: y
        | 3 -> x |: y
        | 4 -> x ^: y
        | 5 -> reg x -- Printf.sprintf "qr%d" k
        | _ -> mux2 (bit x 0) x y
      in
      let s =
        if pipeline && k mod 2 = 1 then reg s -- Printf.sprintf "qp%d" k else s
      in
      pool := !pool @ [ s ])
    ops;
  List.nth !pool (List.length !pool - 1)

let input_pool () =
  [ input "a" 8; input "b" 8; of_int ~width:8 5; reg (input "c" 8) -- "rc" ]

(* levelization respects Circuit.comb_deps (every dep strictly lower) and
   agrees with signals_in_topo_order; the Unit STA model is comb depth *)
let prop_levelize_respects_deps =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"levelization respects comb deps"
       (QCheck.make gen_ops)
       (fun ops ->
         let o = build_ops ~pipeline:false ~pool0:(input_pool ()) ops in
         let c = Hw.Circuit.create ~name:"rand" ~outputs:[ ("o", o) ] in
         let lv = Levelize.of_circuit c in
         let level s =
           (Levelize.nodes lv).(Levelize.slot_of lv s).Levelize.n_level
         in
         let topo = Hw.Circuit.signals_in_topo_order c in
         Levelize.n_nodes lv = List.length topo
         && List.for_all
              (fun s ->
                let l = level s in
                List.for_all
                  (fun d ->
                    level d < l
                    && Levelize.slot_of lv d < Levelize.slot_of lv s)
                  (Hw.Circuit.comb_deps s))
              topo
         && (Sta.analyze ~model:Sta.Unit lv).Sta.r_max_delay
            = Levelize.comb_depth lv))

(* dataflow soundness: on circuits built only from constants, any output
   the analysis claims is Const b must simulate to exactly b on every
   cycle, and the differential check against Opt.constant_fold is clean *)
let prop_dataflow_agrees_with_cyclesim =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"dataflow const-prop agrees with Cyclesim"
       (QCheck.make gen_ops)
       (fun ops ->
         let pool0 =
           [
             of_int ~width:8 5; of_int ~width:8 0; of_int ~width:8 255;
             of_int ~width:8 3;
           ]
         in
         let o = build_ops ~pipeline:false ~pool0 ops in
         let c = Hw.Circuit.create ~name:"const" ~outputs:[ ("o", o) ] in
         let df = Dataflow.run (Levelize.of_circuit c) in
         Dataflow.crosscheck df ~folded:(Hw.Opt.constant_fold c) = []
         &&
         match Dataflow.value_of df o with
         | Dataflow.Top | Dataflow.Bot -> true
         | Dataflow.Const b ->
             let sim = Cyclesim.create c in
             let ok = ref true in
             for _ = 0 to 7 do
               Cyclesim.settle sim;
               if not (Bits.equal (Cyclesim.output sim "o") b) then ok := false;
               Cyclesim.step sim
             done;
             !ok))

(* pipelining only ever cuts combinational paths: registering every other
   node must never increase the STA worst-path delay *)
let prop_sta_monotone_pipeline =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"STA worst path monotone under pipelining"
       (QCheck.make gen_ops)
       (fun ops ->
         let circuit ~pipeline =
           let o = build_ops ~pipeline ~pool0:(input_pool ()) ops in
           Hw.Circuit.create ~name:"p" ~outputs:[ ("o", o) ]
         in
         let flat = Sta.of_circuit (circuit ~pipeline:false) in
         let piped = Sta.of_circuit (circuit ~pipeline:true) in
         piped.Sta.r_max_delay <= flat.Sta.r_max_delay))

(* ---- composer DRC: seeded configuration defects ---- *)

let cmd ~name ~funct = B.Cmd_spec.make ~name ~funct ~response_bits:32 []

let tiny_system ?(n_cores = 1) ?(commands = [ cmd ~name:"go" ~funct:0 ])
    ?(scratchpads = []) ?(read_channels = []) ?(intra_core_ports = []) name =
  C.system ~name ~n_cores ~commands ~scratchpads ~read_channels
    ~intra_core_ports ()

(* record literal: bypasses Config.make validation on purpose, as a
   hand-rolled or generated config could *)
let raw_config systems = { C.acc_name = "seeded"; systems }

let drc ?(platform = D.aws_f1) systems =
  fst (B.Check.run (raw_config systems) platform)

let test_drc_name_collision () =
  check_has_rule "drc-name-collision"
    (drc [ tiny_system "S"; tiny_system "S" ])

let test_drc_core_count () =
  check_has_rule "drc-core-count" (drc [ tiny_system ~n_cores:2000 "S" ]);
  (* zero cores is unconstructible through C.system; a raw record is not *)
  check_has_rule "drc-core-count"
    (drc [ { (tiny_system "S") with C.n_cores = 0 } ])

let test_drc_funct_collision () =
  check_has_rule "drc-funct-collision"
    (drc
       [
         tiny_system
           ~commands:[ cmd ~name:"a" ~funct:3; cmd ~name:"b" ~funct:3 ]
           "S";
       ])

let test_drc_rocc_encoding () =
  let bad_funct =
    {
      B.Cmd_spec.cmd_name = "z";
      cmd_funct = 500;
      fields = [];
      has_response = false;
      resp_bits = 0;
    }
  in
  check_has_rule "drc-rocc-encoding"
    (drc [ tiny_system ~commands:[ bad_funct ] "S" ])

let test_drc_dangling_ref () =
  let port =
    {
      C.ic_name = "p";
      ic_to_system = "no_such_system";
      ic_to_scratchpad = "sp";
    }
  in
  check_has_rule "drc-dangling-ref"
    (drc [ tiny_system ~intra_core_ports:[ port ] "S" ])

let test_drc_scratchpad_capacity () =
  (* 64 Mbit request on a Kria (~24 Mbit of BRAM+URAM) *)
  let sp =
    C.scratchpad ~name:"huge" ~data_bits:64 ~n_datas:1_000_000 ()
  in
  let ds = drc ~platform:D.kria [ tiny_system ~scratchpads:[ sp ] "S" ] in
  check_has_rule "drc-scratchpad-capacity" ds;
  check_bool "is an error" true (Diag.has_errors ds)

let test_drc_floorplan () =
  let sys =
    C.system ~name:"S" ~n_cores:1
      ~commands:[ cmd ~name:"go" ~funct:0 ]
      ~kernel_resources:(Platform.Resources.make ~clb:10_000_000 ())
      ()
  in
  check_has_rule "drc-floorplan" (drc [ sys ])

let test_drc_axi_capacity () =
  (* 8 cores x 4 named read channels = 32 instances > 16 AXI IDs on the
     F1 *)
  let rcs =
    List.init 4 (fun i ->
        C.read_channel ~name:(Printf.sprintf "r%d" i) ~data_bytes:4 ())
  in
  let ds = drc [ tiny_system ~n_cores:8 ~read_channels:rcs "S" ] in
  check_has_rule "drc-axi-capacity" ds;
  check_bool "axi capacity is a warning, not an error" false
    (Diag.has_errors ds)

let test_drc_structural_gates_mapping () =
  (* a structurally broken config must not reach the floorplanner *)
  let sys =
    C.system ~name:"S" ~n_cores:1
      ~commands:[ cmd ~name:"go" ~funct:0 ]
      ~kernel_resources:(Platform.Resources.make ~clb:10_000_000 ())
      ()
  in
  let ds = drc [ { sys with C.n_cores = 0 } ] in
  check_has_rule "drc-core-count" ds;
  check_bool "no mapping diagnostics on structural errors" false
    (has_rule "drc-floorplan" ds)

(* ---- floorplan-aware static timing DRC ---- *)

let test_drc_sta_slr_path () =
  (* ~600 delay units of chained adders against the default 256 budget *)
  let deep = deep_chain_circuit 300 in
  let sys = { (tiny_system "S") with C.kernel_circuit = Some deep } in
  let ds = drc [ sys ] in
  check_has_rule "drc-sta-slr-path" ds;
  (* on a multi-die part the placer steers cores away from the shell die,
     so the over-budget path also crosses an SLR boundary: error *)
  check_bool "cross-SLR over-budget path is an error" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.rule = "drc-sta-slr-path" && d.Diag.severity = Diag.Error)
       ds);
  (* single-die part: same path, no crossing tax -> warning only *)
  let ds_kria = drc ~platform:D.kria [ sys ] in
  check_bool "on-die over-budget path is only a warning" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.rule = "drc-sta-slr-path" && d.Diag.severity = Diag.Warning)
       ds_kria);
  check_bool "no error on a single die" false (Diag.has_errors ds_kria);
  (* a shallow kernel is clean under the default budget *)
  let ok =
    { (tiny_system "T") with C.kernel_circuit = Some (deep_chain_circuit 4) }
  in
  check_bool "shallow kernel passes" false
    (has_rule "drc-sta-slr-path" (drc [ ok ]))

let test_drc_unplaceable_kernel () =
  (* both placement rules read one placement: when no SLR fits the core,
     drc-floorplan reports it and the over-budget kernel gets no timing
     verdict, because no core has an SLR to be taxed for *)
  let sys =
    {
      (tiny_system "S") with
      C.kernel_circuit = Some (deep_chain_circuit 300);
      kernel_resources = Platform.Resources.make ~clb:10_000_000 ();
    }
  in
  let ds = drc [ sys ] in
  check_has_rule "drc-floorplan" ds;
  check_bool "no drc-sta-slr-path without a placement" false
    (has_rule "drc-sta-slr-path" ds)

(* ---- elaborate integration ---- *)

let test_elaborate_raises_on_drc_error () =
  let config =
    raw_config
      [
        tiny_system
          ~commands:[ cmd ~name:"a" ~funct:3; cmd ~name:"b" ~funct:3 ]
          "S";
      ]
  in
  (match B.Elaborate.elaborate config D.aws_f1 with
  | _ -> Alcotest.fail "funct collision must not elaborate"
  | exception Failure msg ->
      check_bool ("mentions the DRC: " ^ msg) true
        (let contains sub =
           let n = String.length sub and m = String.length msg in
           let rec go i =
             i + n <= m && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         contains "drc-funct-collision"))

let test_elaborate_keeps_diagnostics () =
  let d =
    B.Elaborate.elaborate (Kernels.Vecadd.config ~n_cores:2 ()) D.aws_f1
  in
  check_bool "clean design elaborates without error diags" false
    (Diag.has_errors d.B.Elaborate.diagnostics)

(* ---- acceptance: every bundled design is DRC-clean ---- *)

let bundled_designs =
  [
    ("vecadd", Kernels.Vecadd.config ~n_cores:4 ());
    ("memcpy", Kernels.Memcpy.config Kernels.Memcpy.Beethoven);
    ("a3", Attention.Accel.config ~n_cores:2 ());
    ("a3-rtl", Attention.A3_rtl_core.config ~n_cores:2 ());
    ("vecadd-rtl", Kernels.Vecadd_rtl.config ~n_cores:2 ());
    ("nw", Kernels.Machsuite.(config Nw ~n_cores:2));
    ("gemm", Kernels.Machsuite.(config Gemm ~n_cores:2));
    ("stencil2d", Kernels.Machsuite.(config Stencil2d ~n_cores:2));
    ("stencil3d", Kernels.Machsuite.(config Stencil3d ~n_cores:2));
    ("mdknn", Kernels.Machsuite.(config Md_knn ~n_cores:2));
    ("fft", Kernels.Machsuite_extra.(config Fft ~n_cores:2));
    ("spmv", Kernels.Machsuite_extra.(config Spmv ~n_cores:2));
    ("kmp", Kernels.Machsuite_extra.(config Kmp ~n_cores:2));
    ("msort", Kernels.Machsuite_extra.(config Merge_sort ~n_cores:2));
  ]

let test_bundled_designs_clean () =
  List.iter
    (fun (name, config) ->
      no_errors name (fst (B.Check.run config D.aws_f1)))
    bundled_designs

let test_bundled_kernels_lint_clean () =
  (* the RTL-DSL kernel circuits themselves, through the netlist linter *)
  List.iter
    (fun (name, config) ->
      List.iter
        (fun (sys : C.system) ->
          match sys.C.kernel_circuit with
          | None -> ()
          | Some c ->
              no_errors
                (name ^ "/" ^ sys.C.sys_name)
                (Lint.circuit ~folded:(Hw.Opt.constant_fold c)
                   (Levelize.of_circuit c)))
        config.C.systems)
    bundled_designs

let () =
  Alcotest.run "lint"
    [
      ( "netlist-rules",
        [
          Alcotest.test_case "undriven wire" `Quick test_undriven_wire;
          Alcotest.test_case "comb loop (soft path)" `Quick test_comb_loop_soft;
          Alcotest.test_case "duplicate output" `Quick test_dup_output;
          Alcotest.test_case "no outputs" `Quick test_no_outputs;
          Alcotest.test_case "input width conflict" `Quick
            test_input_width_conflict;
          Alcotest.test_case "dead logic" `Quick test_dead_logic;
          Alcotest.test_case "mux selector too wide" `Quick test_mux_sel_wide;
          Alcotest.test_case "async read mapping" `Quick
            test_async_read_mapping;
          Alcotest.test_case "memory address too wide" `Quick
            test_mem_addr_wide;
          Alcotest.test_case "write port overlap" `Quick
            test_write_port_overlap;
          Alcotest.test_case "unnamed state" `Quick test_unnamed_state;
          Alcotest.test_case "const foldable" `Quick test_const_foldable;
          Alcotest.test_case "rule catalog complete" `Quick test_rule_catalog;
        ] );
      ( "value-rules",
        [
          Alcotest.test_case "read before init" `Quick test_read_before_init;
          Alcotest.test_case "read before init via write enable" `Quick
            test_read_before_init_write_enable;
          Alcotest.test_case "const output" `Quick test_const_output;
          Alcotest.test_case "dead mux arm" `Quick test_dead_mux_arm;
          Alcotest.test_case "redundant reset" `Quick test_redundant_reset;
          Alcotest.test_case "dataflow values" `Quick test_dataflow_values;
        ] );
      ( "levelize-sta",
        [
          Alcotest.test_case "levelize basic" `Quick test_levelize_basic;
          Alcotest.test_case "sta report" `Quick test_sta_report;
        ] );
      ( "construction-hardening",
        [
          Alcotest.test_case "mux rejects narrow selector" `Quick
            test_mux_narrow_sel_rejected;
          Alcotest.test_case "mem rejects narrow address" `Quick
            test_mem_narrow_addr_rejected;
          Alcotest.test_case "comb loop failure shows cycle path" `Quick
            test_comb_loop_hard_path;
        ] );
      ( "diag-framework",
        [
          Alcotest.test_case "waivers" `Quick test_waive;
          Alcotest.test_case "-Werror promotion" `Quick test_werror;
          Alcotest.test_case "sort order" `Quick test_sort_order;
          Alcotest.test_case "json rendering" `Quick test_json;
        ] );
      ( "properties",
        [
          prop_random_clean;
          prop_levelize_respects_deps;
          prop_dataflow_agrees_with_cyclesim;
          prop_sta_monotone_pipeline;
        ] );
      ( "composer-drc",
        [
          Alcotest.test_case "name collision" `Quick test_drc_name_collision;
          Alcotest.test_case "core count" `Quick test_drc_core_count;
          Alcotest.test_case "funct collision" `Quick test_drc_funct_collision;
          Alcotest.test_case "rocc encoding" `Quick test_drc_rocc_encoding;
          Alcotest.test_case "dangling ref" `Quick test_drc_dangling_ref;
          Alcotest.test_case "scratchpad capacity" `Quick
            test_drc_scratchpad_capacity;
          Alcotest.test_case "floorplan feasibility" `Quick test_drc_floorplan;
          Alcotest.test_case "axi capacity" `Quick test_drc_axi_capacity;
          Alcotest.test_case "structural errors gate mapping checks" `Quick
            test_drc_structural_gates_mapping;
          Alcotest.test_case "sta slr path" `Quick test_drc_sta_slr_path;
          Alcotest.test_case "unplaceable kernel: floorplan, no sta" `Quick
            test_drc_unplaceable_kernel;
        ] );
      ( "integration",
        [
          Alcotest.test_case "elaborate raises on DRC error" `Quick
            test_elaborate_raises_on_drc_error;
          Alcotest.test_case "elaborate keeps diagnostics" `Quick
            test_elaborate_keeps_diagnostics;
          Alcotest.test_case "bundled designs DRC-clean" `Quick
            test_bundled_designs_clean;
          Alcotest.test_case "bundled kernels lint-clean" `Quick
            test_bundled_kernels_lint_clean;
        ] );
    ]
