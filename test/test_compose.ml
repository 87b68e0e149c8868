(* Configuration validation, floorplanning, and whole-design elaboration. *)

module B = Beethoven
module C = B.Config
module R = Platform.Resources
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sys ?(n_cores = 1) ?(bram_heavy = false) name =
  C.system ~name ~n_cores
    ~read_channels:[ C.read_channel ~name:"in" ~data_bytes:4 () ]
    ~write_channels:[ C.write_channel ~name:"out" ~data_bytes:4 () ]
    ~scratchpads:
      (if bram_heavy then
         [ C.scratchpad ~name:"big" ~data_bits:512 ~n_datas:4096 () ]
       else [])
    ~kernel_resources:(R.make ~clb:1000 ~lut:5000 ~ff:4000 ())
    ()

(* ---- Config ---- *)

let test_config_validation () =
  Alcotest.check_raises "duplicate systems"
    (Invalid_argument "Config: duplicate system \"X\"") (fun () ->
      ignore (C.make ~name:"bad" [ sys "X"; sys "X" ]));
  Alcotest.check_raises "no systems"
    (Invalid_argument "Config.make: no systems") (fun () ->
      ignore (C.make ~name:"bad" []));
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Config: n_cores must be positive") (fun () ->
      ignore (sys ~n_cores:0 "X"));
  Alcotest.check_raises "reader buffer too small"
    (Invalid_argument "Config: reader buffer smaller than one burst")
    (fun () ->
      ignore
        (C.read_channel ~name:"r" ~data_bytes:4 ~burst_beats:64
           ~buffer_beats:32 ()))

let test_config_accessors () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:3 "A"; sys ~n_cores:2 "B" ] in
  check_int "total cores" 5 (C.total_cores cfg)

(* ---- Floorplan ---- *)

let test_floorplan_balances () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:9 "A" ] in
  let fp = B.Floorplan.place cfg D.aws_f1 in
  let n slr =
    List.length
      (List.filter
         (fun cp -> cp.B.Floorplan.cp_slr = slr)
         fp.B.Floorplan.places)
  in
  check_int "all cores placed" 9 (n 0 + n 1 + n 2);
  check_bool "spreads over several SLRs" true
    (List.length (List.filter (fun s -> n s > 0) [ 0; 1; 2 ]) >= 2);
  check_bool "placement follows free capacity" true (n 2 >= n 1 && n 1 >= n 0)

let test_floorplan_shell_affinity () =
  (* the first core must land on the SLR with the least shell usage *)
  let cfg = C.make ~name:"acc" [ sys "A" ] in
  let fp = B.Floorplan.place cfg D.aws_f1 in
  check_int "first core avoids the shell" 2
    (B.Floorplan.slr_of fp ~system:"A" ~core:0)

let test_floorplan_rejects_oversize () =
  let huge =
    C.system ~name:"H" ~n_cores:1
      ~kernel_resources:(R.make ~clb:1_000_000 ())
      ()
  in
  let raised =
    try
      ignore (B.Floorplan.place (C.make ~name:"acc" [ huge ]) D.aws_f1);
      false
    with Failure _ -> true
  in
  check_bool "oversize rejected with Failure" true raised

let test_floorplan_spill_produces_mixed_cells () =
  (* enough BRAM-hungry cores to cross the 80% per-SLR threshold *)
  let cfg = C.make ~name:"acc" [ sys ~n_cores:24 ~bram_heavy:true "A" ] in
  let fp = B.Floorplan.place cfg D.aws_f1 in
  let cells =
    List.concat_map
      (fun cp ->
        List.filter_map
          (fun m ->
            if m.B.Floorplan.mm_name = "big" then
              Some m.B.Floorplan.mm_choice.Platform.Fpga_mem.cell
            else None)
          cp.B.Floorplan.cp_memories)
      fp.B.Floorplan.places
  in
  let brams = List.length (List.filter (( = ) Platform.Fpga_mem.Bram) cells) in
  let urams = List.length (List.filter (( = ) Platform.Fpga_mem.Uram) cells) in
  check_int "every core mapped" 24 (List.length cells);
  check_bool "mixed BRAM/URAM mapping" true (brams > 0 && urams > 0)

let test_constraints_text () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:2 "A" ] in
  let fp = B.Floorplan.place cfg D.aws_f1 in
  let xdc = B.Floorplan.constraints fp in
  let has s =
    let n = String.length s and m = String.length xdc in
    let rec go i = i + n <= m && (String.sub xdc i n = s || go (i + 1)) in
    go 0
  in
  check_bool "pblock per SLR" true (has "create_pblock pblock_slr2");
  check_bool "core assigned" true (has "A_0");
  check_bool "resize to SLR" true (has "resize_pblock pblock_slr0 -add {SLR0}")

(* ---- Elaborate ---- *)

let test_elaborate_endpoints () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:2 "A"; sys ~n_cores:1 "B" ] in
  let d = B.Elaborate.elaborate cfg D.aws_f1 in
  check_int "cmd endpoints are dense" 0 (B.Elaborate.cmd_endpoint d ~system:"A" ~core:0);
  check_int "second system offset" 2 (B.Elaborate.cmd_endpoint d ~system:"B" ~core:0);
  (* each core has in + out channels on the memory NoC *)
  check_int "mem noc endpoints" 6 (List.length d.B.Elaborate.mem_endpoints);
  let ep0 = B.Elaborate.mem_endpoint d ~system:"A" ~core:0 ~channel:"in[0]" in
  let ep1 = B.Elaborate.mem_endpoint d ~system:"A" ~core:1 ~channel:"in[0]" in
  check_bool "distinct endpoints" true (ep0 <> ep1);
  Alcotest.check_raises "unknown channel"
    (Invalid_argument "Elaborate.mem_endpoint: no channel zzz on A[0]")
    (fun () -> ignore (B.Elaborate.mem_endpoint d ~system:"A" ~core:0 ~channel:"zzz"))

let test_elaborate_resource_accounting () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:4 "A" ] in
  let d = B.Elaborate.elaborate cfg D.aws_f1 in
  let cores =
    R.sum (List.map (fun cp -> cp.B.Floorplan.cp_total) d.B.Elaborate.floorplan.B.Floorplan.places)
  in
  check_bool "beethoven = cores + interconnect + frontend" true
    (d.B.Elaborate.beethoven_total
    = R.sum [ cores; d.B.Elaborate.interconnect; d.B.Elaborate.frontend ]);
  check_bool "grand total adds the shell" true
    (d.B.Elaborate.grand_total
    = R.add d.B.Elaborate.beethoven_total (D.total_shell D.aws_f1));
  check_bool "interconnect nonzero" true (d.B.Elaborate.interconnect.R.lut > 0)

let test_elaborate_asic_sram_plans () =
  let cfg =
    C.make ~name:"acc"
      [
        C.system ~name:"A" ~n_cores:1
          ~scratchpads:[ C.scratchpad ~name:"sp" ~data_bits:512 ~n_datas:640 () ]
          ();
      ]
  in
  let d = B.Elaborate.elaborate cfg D.asap7 in
  check_int "one plan per scratchpad" 1 (List.length d.B.Elaborate.sram_plans);
  let _, plan = List.hd d.B.Elaborate.sram_plans in
  check_bool "plan covers the request" true
    (plan.Platform.Sram.cascade * plan.Platform.Sram.macro.Platform.Sram.bits
     >= 512)

let test_elaborate_verilog_passthrough () =
  let open Hw.Signal in
  let a = input "a" 8 in
  let circuit = Hw.Circuit.create ~name:"double" ~outputs:[ ("o", a +: a) ] in
  let cfg =
    C.make ~name:"acc"
      [ C.system ~name:"A" ~n_cores:1 ~kernel_circuit:circuit () ]
  in
  let d = B.Elaborate.elaborate cfg D.aws_f1 in
  match B.Elaborate.verilog d with
  | [ (name, v) ] ->
      check_bool "system name" true (name = "A");
      check_bool "verilog emitted" true (String.length v > 50)
  | _ -> Alcotest.fail "expected one verilog module"

let test_kria_platform_elaborates () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:2 "A" ] in
  let d = B.Elaborate.elaborate cfg D.kria in
  check_int "single-SLR floorplan" 0
    (B.Floorplan.slr_of d.B.Elaborate.floorplan ~system:"A" ~core:1);
  check_int "no SLR crossings" 0 (Noc.n_slr_crossings d.B.Elaborate.cmd_noc)

let test_top_verilog () =
  let cfg = C.make ~name:"acc" [ sys ~n_cores:3 "A" ] in
  let d = B.Elaborate.elaborate cfg D.aws_f1 in
  let v = B.Top_verilog.generate d in
  let count needle =
    let n = String.length needle and m = String.length v in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub v i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "one top module" 1 (count "module beethoven_top");
  check_int "one core instance per core" 3 (count "A_core u_A_");
  check_int "reader+writer adapters per core" 3 (count "u_A_0_in_0" + count "u_A_1_in_0" + count "u_A_2_in_0");
  check_int "cmd noc instances" (Noc.n_buffers d.B.Elaborate.cmd_noc)
    (count "u_cmd_noc_");
  check_int "mem noc instances" (Noc.n_buffers d.B.Elaborate.mem_noc)
    (count "u_mem_noc_");
  check_bool "support modules present" true
    (count "module beethoven_reader" = 1
    && count "module beethoven_writer" = 1
    && count "module beethoven_mmio_frontend" = 1);
  check_bool "pblock annotations" true (count "// pblock_slr" >= 3)

let test_dse_sweep () =
  let points =
    B.Dse.sweep_cores
      ~config_of:(fun ~n_cores -> Attention.Accel.config ~n_cores ())
      ~max_cores:30
      ~metric:(fun ~n_cores -> float_of_int n_cores)
      D.aws_f1
  in
  check_int "30 points" 30 (List.length points);
  (* feasibility is monotone: once it stops fitting it never fits again *)
  let rec monotone seen_fail = function
    | [] -> true
    | p :: rest ->
        if p.B.Dse.pt_fits && seen_fail then false
        else monotone (seen_fail || not p.B.Dse.pt_fits) rest
  in
  check_bool "fit is monotone in core count" true (monotone false points);
  match B.Dse.best points with
  | Some best ->
      check_int "best = the paper's 23-core point" 23 best.B.Dse.pt_cores;
      check_bool "utilization < 100%" true (best.B.Dse.pt_peak_utilization < 1.0)
  | None -> Alcotest.fail "no feasible point"

let test_send_command_validation () =
  let cfg = C.make ~name:"acc" [ sys "A" ] in
  let d = B.Elaborate.elaborate cfg D.aws_f1 in
  let soc = B.Soc.create d ~behaviors:(fun _ -> fun _ _ ~respond -> respond 0L) in
  let cmd sys core =
    { B.Rocc.system_id = sys; core_id = core; funct = 0;
      expects_response = true; payload1 = 0L; payload2 = 0L }
  in
  Alcotest.check_raises "bad system"
    (Invalid_argument "Soc.send_command: no system 7") (fun () ->
      B.Soc.send_command soc (cmd 7 0) ~on_response:ignore);
  Alcotest.check_raises "bad core"
    (Invalid_argument "Soc.send_command: A has no core 3") (fun () ->
      B.Soc.send_command soc (cmd 0 3) ~on_response:ignore)

let test_stats_report () =
  let expected, actual, _ =
    Kernels.Vecadd.run ~n_cores:1 ~n_eles:1024 ~platform:D.aws_f1 ()
  in
  check_bool "run ok" true (expected = actual);
  (* a fresh soc for the report (run doesn't return its soc); drive one *)
  let d = B.Elaborate.elaborate (Kernels.Vecadd.config ()) D.aws_f1 in
  let soc = B.Soc.create d ~behaviors:(fun _ -> Kernels.Vecadd.behavior) in
  let h = Runtime.Handle.create soc in
  let p = Runtime.Handle.malloc h 4096 in
  ignore
    (Runtime.Handle.await h
       (Runtime.Handle.send h ~system:"VecAdd" ~core:0
          ~cmd:Kernels.Vecadd.command
          ~args:
            [
              ("addend", 1L);
              ("vec_addr", Int64.of_int p.Runtime.Handle.rp_addr);
              ("out_addr", Int64.of_int p.Runtime.Handle.rp_addr);
              ("n_eles", 64L);
            ]));
  let report = B.Soc.stats_report soc in
  let has needle =
    let n = String.length needle and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions DRAM" true (has "DRAM:");
  check_bool "mentions AXI" true (has "AXI:");
  check_bool "mentions NoC" true (has "NoC:")

let () =
  Alcotest.run "compose"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "accessors" `Quick test_config_accessors;
        ] );
      ( "floorplan",
        [
          Alcotest.test_case "balances" `Quick test_floorplan_balances;
          Alcotest.test_case "shell affinity" `Quick test_floorplan_shell_affinity;
          Alcotest.test_case "oversize rejected" `Quick
            test_floorplan_rejects_oversize;
          Alcotest.test_case "spill mixes cells" `Quick
            test_floorplan_spill_produces_mixed_cells;
          Alcotest.test_case "constraints" `Quick test_constraints_text;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "endpoints" `Quick test_elaborate_endpoints;
          Alcotest.test_case "resources" `Quick test_elaborate_resource_accounting;
          Alcotest.test_case "asic sram" `Quick test_elaborate_asic_sram_plans;
          Alcotest.test_case "verilog" `Quick test_elaborate_verilog_passthrough;
          Alcotest.test_case "kria" `Quick test_kria_platform_elaborates;
          Alcotest.test_case "top verilog" `Quick test_top_verilog;
          Alcotest.test_case "dse sweep" `Quick test_dse_sweep;
          Alcotest.test_case "command validation" `Quick
            test_send_command_validation;
          Alcotest.test_case "stats report" `Quick test_stats_report;
        ] );
    ]
