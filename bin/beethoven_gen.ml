(* beethoven_gen — elaborate a bundled accelerator configuration for a
   target platform and emit the generated artifacts (summary, Table-II
   style resource report, floorplan constraints, C++ bindings, Verilog
   for RTL-DSL kernels, ASIC SRAM plans), or run the static analyzer
   over bundled designs.

     dune exec bin/beethoven_gen.exe -- --design a3 --platform f1 --emit all
     dune exec bin/beethoven_gen.exe -- lint --design all --platform f1
*)

open Cmdliner

let designs =
  [
    ("vecadd", fun n -> Kernels.Vecadd.config ~n_cores:n ());
    ("memcpy", fun _ -> Kernels.Memcpy.config Kernels.Memcpy.Beethoven);
    ("a3", fun n -> Attention.Accel.config ~n_cores:n ());
    ("a3-rtl", fun n -> Attention.A3_rtl_core.config ~n_cores:n ());
    ("vecadd-rtl", fun n -> Kernels.Vecadd_rtl.config ~n_cores:n ());
    ("nw", fun n -> Kernels.Machsuite.(config Nw ~n_cores:n));
    ("gemm", fun n -> Kernels.Machsuite.(config Gemm ~n_cores:n));
    ("stencil2d", fun n -> Kernels.Machsuite.(config Stencil2d ~n_cores:n));
    ("stencil3d", fun n -> Kernels.Machsuite.(config Stencil3d ~n_cores:n));
    ("mdknn", fun n -> Kernels.Machsuite.(config Md_knn ~n_cores:n));
    ("fft", fun n -> Kernels.Machsuite_extra.(config Fft ~n_cores:n));
    ("spmv", fun n -> Kernels.Machsuite_extra.(config Spmv ~n_cores:n));
    ("kmp", fun n -> Kernels.Machsuite_extra.(config Kmp ~n_cores:n));
    ("msort", fun n -> Kernels.Machsuite_extra.(config Merge_sort ~n_cores:n));
  ]

let platforms =
  [
    ("f1", Platform.Device.aws_f1);
    ("kria", Platform.Device.kria);
    ("asap7", Platform.Device.asap7);
    ("chipkit", Platform.Device.chipkit);
    ("saed32", Platform.Device.saed32);
    ("sim", Platform.Device.sim);
  ]

let emits = [ "summary"; "resources"; "constraints"; "cpp"; "verilog"; "sram"; "all" ]

(* Usage errors name the valid choices and exit 2. *)
let platform_of name =
  match List.assoc_opt name platforms with
  | Some p -> p
  | None ->
      Printf.eprintf "unknown platform %S (available: %s)\n" name
        (String.concat ", " (List.map fst platforms));
      exit 2

(* [all], or one bundled design *)
let select_designs design =
  if design = "all" then designs
  else
    match List.assoc_opt design designs with
    | Some f -> [ (design, f) ]
    | None ->
        Printf.eprintf "unknown design %S (available: all, %s)\n" design
          (String.concat ", " (List.map fst designs));
        exit 2

let run design platform n_cores emit out_dir =
  let config_of =
    match List.assoc_opt design designs with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown design %S (available: %s)\n" design
          (String.concat ", " (List.map fst designs));
        exit 2
  in
  let plat = platform_of platform in
  let config = config_of n_cores in
  let d =
    try Beethoven.Elaborate.elaborate config plat
    with Failure msg ->
      Printf.eprintf "elaboration failed: %s\n" msg;
      exit 1
  in
  let wants what = emit = "all" || emit = what in
  let output name content =
    match out_dir with
    | None ->
        Printf.printf "--- %s ---\n%s\n" name content
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  if wants "summary" then output "summary.txt" (Beethoven.Elaborate.summary d);
  if wants "resources" then
    output "resources.txt" (Beethoven.Elaborate.resource_table d);
  if wants "constraints" then
    output "constraints.xdc" (Beethoven.Elaborate.constraints d);
  if wants "cpp" then begin
    output
      (config.Beethoven.Config.acc_name ^ "_bindings.h")
      (Beethoven.Elaborate.cpp_header d);
    output
      (config.Beethoven.Config.acc_name ^ "_bindings.cc")
      (Beethoven.Elaborate.cpp_stubs d)
  end;
  if wants "verilog" then begin
    List.iter
      (fun (sys, v) -> output (sys ^ "_core.v") v)
      (Beethoven.Elaborate.verilog d);
    output "beethoven_top.v" (Beethoven.Top_verilog.generate d)
  end;
  if wants "sram" then begin
    match d.Beethoven.Elaborate.sram_plans with
    | [] -> if emit = "sram" then print_endline "(no ASIC SRAM plans: FPGA platform)"
    | plans ->
        output "sram_plan.txt"
          (String.concat "\n"
             (List.map
                (fun (n, p) ->
                  Printf.sprintf "%s: %s" n (Platform.Sram.describe p))
                plans))
  end

(* ---- lint subcommand: run Check/Lint over bundled designs ---- *)

let lint design platform n_cores json format werror waived =
  let json =
    match format with
    | "json" -> true
    | "text" -> json
    | other ->
        Printf.eprintf "unknown format %S (text, json)\n" other;
        exit 2
  in
  let plat = platform_of platform in
  let selected = select_designs design in
  let diags =
    List.concat_map
      (fun (name, config_of) ->
        match config_of n_cores with
        | config ->
            List.map
              (fun (d : Hw.Diag.t) ->
                let loc =
                  match d.Hw.Diag.loc with
                  | Some l -> name ^ ": " ^ l
                  | None -> name
                in
                { d with Hw.Diag.loc = Some loc })
              (fst (Beethoven.Check.run config plat))
        | exception (Failure m | Invalid_argument m) ->
            [
              Hw.Diag.make ~loc:name ~rule:"drc-config"
                ~severity:Hw.Diag.Error
                ("configuration failed to construct: " ^ m);
            ])
      selected
  in
  let diags = Hw.Diag.waive ~rules:waived diags in
  let diags = if werror then Hw.Diag.promote_warnings diags else diags in
  let diags = Hw.Diag.sort diags in
  if json then print_endline (Hw.Diag.render_json diags)
  else print_endline (Hw.Diag.render diags);
  if Hw.Diag.has_errors diags then exit 1

let design_arg =
  let doc = "Bundled design to elaborate: " ^ String.concat ", " (List.map fst designs) in
  Arg.(value & opt string "vecadd" & info [ "design"; "d" ] ~docv:"NAME" ~doc)

let platform_arg =
  let doc = "Target platform: " ^ String.concat ", " (List.map fst platforms) in
  Arg.(value & opt string "f1" & info [ "platform"; "p" ] ~docv:"NAME" ~doc)

let cores_arg =
  let doc = "Number of accelerator cores per system." in
  Arg.(value & opt int 1 & info [ "cores"; "n" ] ~docv:"N" ~doc)

let emit_arg =
  let doc = "Artifact to emit: " ^ String.concat ", " emits in
  Arg.(value & opt string "summary" & info [ "emit"; "e" ] ~docv:"WHAT" ~doc)

let out_arg =
  let doc = "Write artifacts into this directory instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR" ~doc)

let lint_design_arg =
  let doc =
    "Design to lint, or $(b,all): "
    ^ String.concat ", " (List.map fst designs)
  in
  Arg.(value & opt string "all" & info [ "design"; "d" ] ~docv:"NAME" ~doc)

let json_arg =
  let doc = "Emit diagnostics as JSON instead of text (same as $(b,--format json))." in
  Arg.(value & flag & info [ "json" ] ~doc)

let diag_format_arg =
  let doc = "Output format: $(b,text) or $(b,json) (machine-readable, one \
             object per diagnostic with rule/severity/loc/message/hint)." in
  Arg.(value & opt string "text" & info [ "format"; "f" ] ~docv:"FMT" ~doc)

let werror_arg =
  let doc = "Treat warnings as errors." in
  Arg.(value & flag & info [ "werror"; "Werror" ] ~doc)

let waive_arg =
  let doc = "Suppress a rule by id (repeatable), e.g. $(b,--waive async-read-mapping)." in
  Arg.(value & opt_all string [] & info [ "waive"; "w" ] ~docv:"RULE" ~doc)

(* ---- sta subcommand: static timing over bundled RTL-DSL kernels ---- *)

let sta_run design platform n_cores model format =
  let model =
    match model with
    | "unit" -> Hw.Sta.Unit
    | "typical" -> Hw.Sta.Typical
    | other ->
        Printf.eprintf "unknown delay model %S (unit, typical)\n" other;
        exit 2
  in
  let plat = platform_of platform in
  let selected = select_designs design in
  let tax = plat.Platform.Device.noc.Noc.Params.slr_crossing_latency_cycles in
  let per_design =
    List.map
      (fun (name, config_of) ->
        let config = config_of n_cores in
        let reports =
          List.map
            (fun (sys, c) ->
              (sys, Hw.Sta.of_circuit ~model c))
            (List.filter_map
               (fun (s : Beethoven.Config.system) ->
                 Option.map
                   (fun c -> (s.Beethoven.Config.sys_name, c))
                   s.Beethoven.Config.kernel_circuit)
               config.Beethoven.Config.systems)
        in
        (name, reports))
      selected
  in
  match format with
  | "json" ->
      let design_json (name, reports) =
        Printf.sprintf "{\"design\":\"%s\",\"systems\":[%s]}" name
          (String.concat ","
             (List.map
                (fun (sys, r) ->
                  Printf.sprintf "{\"system\":\"%s\",\"sta\":%s}" sys
                    (Hw.Sta.to_json r))
                reports))
      in
      Printf.printf
        "{\"platform\":\"%s\",\"slr_crossing_tax\":%d,\"budget\":%d,\"designs\":[%s]}\n"
        platform tax Beethoven.Check.default_sta_budget
        (String.concat "," (List.map design_json per_design))
  | "text" ->
      List.iter
        (fun (name, reports) ->
          match reports with
          | [] -> Printf.printf "%s: no RTL-DSL kernels\n" name
          | _ ->
              Printf.printf "%s:\n" name;
              List.iter
                (fun (sys, r) ->
                  Printf.printf "%s"
                    (Hw.Sta.render { r with Hw.Sta.r_circuit = sys ^ "/" ^ r.Hw.Sta.r_circuit }))
                reports)
        per_design;
      Printf.printf
        "(budget %d, SLR-crossing tax %d on %s; drc-sta-slr-path enforces \
         budget - tax x crossings per placed core)\n"
        Beethoven.Check.default_sta_budget tax platform
  | other ->
      Printf.eprintf "unknown format %S (text, json)\n" other;
      exit 2

let sta_design_arg =
  let doc =
    "Design to analyze, or $(b,all): "
    ^ String.concat ", " (List.map fst designs)
  in
  Arg.(value & opt string "all" & info [ "design"; "d" ] ~docv:"NAME" ~doc)

let sta_model_arg =
  let doc =
    "Delay model: $(b,typical) (per-primitive-kind delays) or $(b,unit) \
     (every primitive costs 1, so max delay = combinational depth)."
  in
  Arg.(value & opt string "typical" & info [ "model"; "m" ] ~docv:"MODEL" ~doc)

let exit_status_man =
  [
    `S Manpage.s_exit_status;
    `P "$(b,0) on a clean run (no error-severity diagnostics).";
    `P "$(b,1) when any error-severity diagnostic remains after waivers.";
    `P "$(b,2) on usage errors: unknown design, platform, format or model.";
  ]

let sta_cmd =
  let doc = "static timing analysis over bundled RTL-DSL kernels" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Levelizes every RTL-DSL kernel circuit of the selected bundled \
         design(s) ($(b,Hw.Levelize)) and reports the $(b,Hw.Sta) \
         estimate: combinational depth, worst path under the chosen delay \
         model (per-node kinds and arrival times), per-output depth table \
         and fanout hotspots. $(b,--format json) emits one stable line of \
         JSON (schema shared with $(b,lint --format json)) suitable for \
         byte-comparison across runs; the $(b,@sta) dune alias does \
         exactly that. The same estimate, taxed with the platform's \
         SLR-crossing penalty for cores placed off the shell die, is \
         enforced as the $(b,drc-sta-slr-path) design rule by $(b,lint).";
    ]
    @ exit_status_man
  in
  Cmd.v
    (Cmd.info "sta" ~doc ~man)
    Term.(
      const sta_run $ sta_design_arg $ platform_arg $ cores_arg $ sta_model_arg
      $ diag_format_arg)

(* ---- fault-campaign subcommand: seeded fault injection on memcpy ---- *)

let fault_campaign seed bytes iters cores platform hang scale curve show_log =
  let plat = platform_of platform in
  if curve then begin
    print_string
      (Kernels.Campaign.render_curve
         (Kernels.Campaign.degradation ~seed ~bytes ~iters ~platform:plat ()))
  end
  else begin
    let plan =
      Fault.Plan.scale scale (Fault.Plan.default_recoverable ~seed ())
    in
    let plan =
      if hang then Fault.Plan.with_hang ~after:1 ~system:0 ~core:0 plan
      else plan
    in
    let r =
      Kernels.Campaign.run ~plan ~bytes ~iters ~n_cores:cores ~platform:plat ()
    in
    print_string (Kernels.Campaign.render r);
    if show_log then
      print_string (Fault.Log.render r.Kernels.Campaign.log);
    (* gate for CI: every injected fault resolved, every byte verified *)
    if not (Kernels.Campaign.clean r) then exit 1
  end

let seed_arg =
  let doc = "Campaign seed. The same seed reproduces the same fault log." in
  Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"N" ~doc)

let bytes_arg =
  let doc = "Payload size per memcpy round-trip, in bytes (8-aligned)." in
  Arg.(value & opt int (64 * 1024) & info [ "bytes"; "b" ] ~docv:"N" ~doc)

let iters_arg =
  let doc = "Number of memcpy round-trips in the campaign." in
  Arg.(value & opt int 4 & info [ "iters"; "i" ] ~docv:"N" ~doc)

let campaign_cores_arg =
  let doc =
    "Cores in the memcpy system (>= 2 lets the watchdog reroute after a \
     quarantine)."
  in
  Arg.(value & opt int 2 & info [ "cores"; "n" ] ~docv:"N" ~doc)

let hang_arg =
  let doc =
    "Additionally hang core 0 at its first command dispatch, exercising \
     the timeout -> quarantine -> reroute path."
  in
  Arg.(value & flag & info [ "hang" ] ~doc)

let scale_arg =
  let doc = "Multiply every fault rate in the default mix by this factor." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"X" ~doc)

let curve_arg =
  let doc =
    "Run the throughput-degradation curve (fault rates x0 to x4) instead \
     of a single campaign."
  in
  Arg.(value & flag & info [ "curve" ] ~doc)

let log_arg =
  let doc = "Print the full chronological fault log." in
  Arg.(value & flag & info [ "log" ] ~doc)

let fault_cmd =
  let doc = "run a seeded fault-injection campaign on the memcpy kernel" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays the memcpy microbenchmark through the full host path \
         (malloc, DMA, command, response, DMA, verification) while a \
         deterministic injector flips DRAM bits, errors AXI bursts, \
         drops and delays fabric messages, fails DMA transfers, and \
         (with $(b,--hang)) wedges a core. Exits 1 unless every injected \
         fault was recovered and every byte verified.";
    ]
  in
  Cmd.v
    (Cmd.info "fault-campaign" ~doc ~man)
    Term.(
      const fault_campaign $ seed_arg $ bytes_arg $ iters_arg
      $ campaign_cores_arg $ platform_arg $ hang_arg $ scale_arg $ curve_arg
      $ log_arg)

(* ---- trace subcommand: traced memcpy with structured sinks ---- *)

let trace_run seed bytes platform format out =
  let plat = platform_of platform in
  if bytes mod 8 <> 0 || bytes <= 0 then begin
    Printf.eprintf "trace: bytes must be positive and 8-aligned\n";
    exit 2
  end;
  let tracer = Trace.create () in
  let r =
    Kernels.Memcpy.run ~tracer ~seed ~impl:Kernels.Memcpy.Beethoven ~bytes
      ~platform:plat ()
  in
  let problems = Trace.check tracer in
  List.iter (fun p -> Printf.eprintf "trace check: %s\n" p) problems;
  let read_bytes = Trace.counter_value tracer "ddr0.read_bytes" in
  let failures =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (not r.Kernels.Memcpy.verified, "data verification failed");
        (problems <> [], "trace well-formedness check failed");
        (Trace.span_count tracer = 0, "no spans recorded");
        ( read_bytes < bytes,
          Printf.sprintf "ddr0.read_bytes %d < payload %d" read_bytes bytes );
      ]
  in
  let render = function
    | "chrome" -> Trace.to_chrome_json tracer
    | "profile" -> Trace.profile tracer
    | "timeline" -> Trace.axi_timeline tracer
    | _ -> assert false
  in
  let content =
    match format with
    | "chrome" | "profile" | "timeline" -> render format
    | "all" ->
        String.concat "\n"
          (List.map
             (fun f -> Printf.sprintf "--- %s ---\n%s" f (render f))
             [ "profile"; "timeline"; "chrome" ])
    | other ->
        Printf.eprintf "unknown format %S (chrome, profile, timeline, all)\n"
          other;
        exit 2
  in
  (match out with
  | None -> print_string content
  | Some path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      (* keep stdout clean for --format chrome redirection *)
      Printf.eprintf "wrote %s\n" path);
  if failures <> [] then begin
    List.iter (fun m -> Printf.eprintf "trace: %s\n" m) failures;
    exit 1
  end

let format_arg =
  let doc = "Sink to emit: chrome, profile, timeline, all." in
  Arg.(value & opt string "profile" & info [ "format"; "f" ] ~docv:"FMT" ~doc)

let trace_out_arg =
  let doc = "Write the sink output to this file instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let trace_cmd =
  let doc = "run a traced memcpy and emit structured trace sinks" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the memcpy microbenchmark with the structured tracer \
         threaded through the whole stack (runtime server, command NoC, \
         core execution, Readers/Writers, AXI, DRAM), validates the span \
         tree, and emits the chosen sink: $(b,chrome) (trace-event JSON \
         for chrome://tracing or Perfetto), $(b,profile) (per-kernel \
         phase/counter/quantile report), $(b,timeline) (ASCII AXI lane \
         view, the Fig. 5 shape), or $(b,all). The same seed produces \
         byte-identical output. Exits 1 if verification, the \
         well-formedness check, or the traffic cross-check fails.";
    ]
  in
  Cmd.v
    (Cmd.info "trace" ~doc ~man)
    Term.(
      const trace_run $ seed_arg $ bytes_arg $ platform_arg $ format_arg
      $ trace_out_arg)

(* ---- sim subcommand: step RTL-DSL kernels, or lockstep both backends ---- *)

let sim_run design backend cycles seed n_cores =
  let mode =
    match backend with
    | "both" -> `Both
    | s -> (
        match Hw.Sim.backend_of_string s with
        | Some b -> `One b
        | None ->
            Printf.eprintf "unknown backend %S (interpreter, compiled, both)\n"
              s;
            exit 2)
  in
  if cycles < 1 then begin
    Printf.eprintf "sim: cycles must be >= 1\n";
    exit 2
  end;
  let selected = select_designs design in
  let kernels =
    List.concat_map
      (fun (name, config_of) ->
        let config = config_of n_cores in
        List.filter_map
          (fun (s : Beethoven.Config.system) ->
            Option.map
              (fun c -> (name ^ "/" ^ s.Beethoven.Config.sys_name, c))
              s.Beethoven.Config.kernel_circuit)
          config.Beethoven.Config.systems)
      selected
  in
  if kernels = [] then begin
    Printf.eprintf "sim: no RTL-DSL kernels in the selected design(s)\n";
    exit 2
  end;
  (* seeded stimulus: each input holds a random value for a random 1-8
     cycles, then draws a new one; every input is re-driven every cycle,
     so held cycles exercise the "input unchanged" path *)
  let stimulus st c =
    let held =
      List.map (fun (n, w) -> (n, w, ref (Bits.zero w), ref 0))
        (Hw.Circuit.inputs c)
    in
    fun () ->
      List.map
        (fun (n, w, v, left) ->
          if !left = 0 then begin
            v := Hw.Sim.random_bits st w;
            left := 1 + Random.State.int st 8
          end;
          decr left;
          (n, !v))
        held
  in
  let fold_digest d b =
    String.fold_left
      (fun d c -> ((d * 33) + Char.code c) land 0x3fffffff)
      d (Bits.to_hex_string b)
  in
  let diverged = ref false in
  List.iter
    (fun (label, c) ->
      let st = Random.State.make [| seed |] in
      match mode with
      | `One b ->
          (* seeded random stimulus; the output digest is backend-stable,
             so the same invocation with the other backend must print the
             same digest *)
          let sim = Hw.Sim.create ~backend:b c in
          let next = stimulus st c in
          let digest = ref 5381 in
          for _ = 1 to cycles do
            List.iter (fun (n, v) -> Hw.Sim.set_input sim n v) (next ());
            List.iter
              (fun (n, _) -> digest := fold_digest !digest (Hw.Sim.output sim n))
              (Hw.Circuit.outputs c);
            Hw.Sim.step sim
          done;
          Printf.printf "  %-28s %-11s %5d cycles, output digest %08x\n" label
            (Hw.Sim.backend_name b) cycles !digest
      | `Both -> (
          let next = stimulus st c in
          match Hw.Sim.lockstep c ~cycles ~stimulus:(fun _ -> next ()) with
          | Ok () ->
              Printf.printf "  %-28s lockstep OK: %d cycles, %d outputs, %d \
                             memory words compared\n"
                label cycles
                (List.length (Hw.Circuit.outputs c))
                (List.fold_left
                   (fun acc m -> acc + Hw.Signal.mem_size m)
                   0 (Hw.Circuit.memories c))
          | Error where ->
              diverged := true;
              Printf.printf "  %-28s DIVERGED at %s\n" label where))
    kernels;
  if !diverged then exit 1

let sim_design_arg =
  let doc =
    "Design whose RTL-DSL kernels to simulate, or $(b,all): "
    ^ String.concat ", " (List.map fst designs)
  in
  Arg.(value & opt string "all" & info [ "design"; "d" ] ~docv:"NAME" ~doc)

let sim_backend_arg =
  let doc =
    "Simulation backend: $(b,interpreter) (Hw.Cyclesim), $(b,compiled) \
     (Hw.Compile) or $(b,both) (run the two in lockstep and compare every \
     output and every memory word each cycle)."
  in
  Arg.(value & opt string "both" & info [ "backend" ] ~docv:"NAME" ~doc)

let sim_cycles_arg =
  let doc = "Number of cycles of seeded random stimulus." in
  Arg.(value & opt int 64 & info [ "cycles" ] ~docv:"N" ~doc)

let sim_cmd =
  let doc = "simulate bundled RTL-DSL kernels (interpreter, compiled, or both)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Drives every RTL-DSL kernel circuit of the selected bundled \
         design(s) with seeded random stimulus: each input holds a random \
         value for a random 1-8 cycles. With $(b,--backend \
         interpreter) or $(b,compiled) it steps that backend and prints a \
         backend-stable digest of every output on every cycle (the two \
         backends must print the same digest for the same seed). With \
         $(b,--backend both) (the default, and what the $(b,@simspeed) \
         dune alias gates on) it runs both backends in lockstep and exits \
         1 on the first divergence in any output or backdoor-read memory \
         word. BENCH_simspeed.json archives the throughput of both \
         backends over the same designs (bench sim-speed).";
    ]
    @ exit_status_man
  in
  Cmd.v
    (Cmd.info "sim" ~doc ~man)
    Term.(
      const sim_run $ sim_design_arg $ sim_backend_arg $ sim_cycles_arg
      $ seed_arg $ cores_arg)

(* ---- the in-process determinism gate of serve/cluster/scenario/tune ---- *)

(* Run the campaign twice, print the first run, and exit 1 if the two
   canonical renderings differ or the first run reports problems (one
   stderr line each, prefixed with the subcommand name). *)
let deterministic_run ~name ~diverged ~run ~canonical ~print ~problems =
  let r1 = run () in
  let r2 = run () in
  print r1;
  let deterministic = String.equal (canonical r1) (canonical r2) in
  if not deterministic then
    Printf.eprintf "%s: NON-DETERMINISTIC: %s\n" name diverged;
  let problems = problems r1 in
  List.iter (Printf.eprintf "%s: %s\n" name) problems;
  if (not deterministic) || problems <> [] then exit 1

(* ---- serve subcommand: multi-tenant serving campaign ---- *)

let serve_run seed n_clients n_tenants duration_us policy platform cores batch
    rate think_us hang =
  let policy =
    match Serve.policy_of_name policy with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown policy %S (wfq, fifo)\n" policy;
        exit 2
  in
  let plat = platform_of platform in
  if n_tenants < 1 || n_clients < 1 || duration_us < 1 then begin
    Printf.eprintf "serve: tenants, clients and duration must be >= 1\n";
    exit 2
  end;
  (* Alternate open-loop and closed-loop tenants with increasing weights,
     so the default invocation exercises both client models and the
     weighted-fair scheduler. *)
  let tenants =
    List.init n_tenants (fun i ->
        let load =
          if i mod 2 = 0 then Serve.Tenant.open_loop ~rate_rps:rate ()
          else Serve.Tenant.Closed_loop { think_ps = think_us * 1_000_000 }
        in
        Serve.Tenant.make
          ~name:(Printf.sprintf "t%d" i)
          ~weight:(float_of_int (i + 1))
          ~clients:n_clients ~load ())
  in
  let cfg =
    Serve.config ~seed ~duration_ps:(duration_us * 1_000_000) ~policy
      ~n_cores:cores ~batch_max:batch ~tenants ()
  in
  let plan =
    if hang then Some (Fault.Plan.with_hang ~after:1 ~system:0 ~core:0 Fault.Plan.none)
    else None
  in
  (* the same seed must reproduce the same campaign, down to every
     counter and quantile in the digest *)
  deterministic_run ~name:"serve" ~diverged:"same seed diverged"
    ~run:(Serve.run ?plan ~platform:plat cfg)
    ~canonical:Serve.digest
    ~print:(fun r ->
      print_string (Serve.render r);
      Printf.printf "digest: %s\n" (Serve.digest r))
    ~problems:(fun r ->
      List.map (fun p -> "accounting: " ^ p) (Serve.violations r))

let serve_clients_arg =
  let doc = "Clients per tenant." in
  Arg.(value & opt int 4 & info [ "clients"; "c" ] ~docv:"N" ~doc)

let serve_tenants_arg =
  let doc =
    "Number of tenants (even indices open-loop, odd closed-loop; weight \
     of tenant $(i,i) is $(i,i)+1)."
  in
  Arg.(value & opt int 2 & info [ "tenants"; "t" ] ~docv:"N" ~doc)

let serve_duration_arg =
  let doc = "Arrival-generation horizon, in simulated microseconds." in
  Arg.(value & opt int 1000 & info [ "duration" ] ~docv:"US" ~doc)

let serve_policy_arg =
  let doc = "Dispatch policy: wfq (weighted fair) or fifo." in
  Arg.(value & opt string "wfq" & info [ "policy" ] ~docv:"NAME" ~doc)

let serve_cores_arg =
  let doc = "Cores per deployed system." in
  Arg.(value & opt int 4 & info [ "cores"; "n" ] ~docv:"N" ~doc)

let serve_batch_arg =
  let doc = "Max commands coalesced per runtime-server occupancy." in
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc)

let serve_rate_arg =
  let doc = "Open-loop arrival rate per client, requests/second." in
  Arg.(value & opt float 100_000. & info [ "rate" ] ~docv:"RPS" ~doc)

let serve_think_arg =
  let doc = "Closed-loop think time per client, in microseconds." in
  Arg.(value & opt int 20 & info [ "think" ] ~docv:"US" ~doc)

let serve_hang_arg =
  let doc =
    "Hang core 0 of system 0 at its first command: the dispatcher must \
     shed around the quarantine without losing a request."
  in
  Arg.(value & flag & info [ "hang" ] ~doc)

let serve_cmd =
  let doc = "run a multi-tenant serving campaign and print the SLO report" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Deploys the memcpy and vecadd systems side by side, generates \
         deterministic open-loop (Poisson) and closed-loop (think-time) \
         request streams for each tenant, dispatches them weighted-fair \
         with per-server-occupancy batching and least-outstanding-work \
         core sharding, sheds on full queues and passed deadlines, and \
         prints per-tenant offered vs. achieved throughput with the \
         queue-wait / service / collect latency breakdown at \
         p50/p95/p99/p99.9. The campaign is run twice in-process; the \
         run exits 1 if the two digests differ (determinism) or any \
         accounting invariant is violated (conservation, allocator \
         cleanliness, unresolved faults).";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_run $ seed_arg $ serve_clients_arg $ serve_tenants_arg
      $ serve_duration_arg $ serve_policy_arg $ platform_arg $ serve_cores_arg
      $ serve_batch_arg $ serve_rate_arg $ serve_think_arg $ serve_hang_arg)

(* ---- cluster subcommand: fault-tolerant multi-device serving ---- *)

let cluster_run seed devices warm duration_us rate kills restores curve =
  if devices < 1 || duration_us < 1 then begin
    Printf.eprintf "cluster: devices and duration must be >= 1\n";
    exit 2
  end;
  List.iter
    (fun (flag, args) ->
      List.iter
        (fun (dev, us) ->
          if dev < 0 || dev >= devices || us < 0 then begin
            Printf.eprintf
              "cluster: --%s %d:%d: DEV must be in [0, %d) and US >= 0\n" flag
              dev us devices;
            exit 2
          end)
        args)
    [ ("kill", kills); ("restore", restores) ];
  let duration_ps = duration_us * 1_000_000 in
  if curve then begin
    let pts =
      Cluster.device_loss_curve ~seed ~duration_ps ~rate_rps:rate ~devices ()
    in
    print_string (Cluster.render_loss_curve pts)
  end
  else begin
    let tenants =
      [
        Serve.Tenant.make ~name:"gold" ~weight:3.0 ~clients:4
          ~slo_ps:400_000_000 ~deadline_ps:900_000_000
          ~mix:[ Serve.Mix.memcpy ~bytes:(8 * 1024) () ]
          ~load:(Serve.Tenant.open_loop ~rate_rps:(rate /. 4.) ())
          ();
        Serve.Tenant.make ~name:"bronze" ~weight:1.0 ~clients:2
          ~slo_ps:500_000_000 ~deadline_ps:900_000_000
          ~mix:[ Serve.Mix.vecadd ~bytes:(4 * 1024) () ]
          ~load:(Serve.Tenant.Closed_loop { think_ps = 30_000_000 })
          ();
      ]
    in
    let cfg = Cluster.config ~seed ~duration_ps ~devices ?warm ~tenants () in
    let chaos =
      List.map
        (fun (dev, at_us) -> Cluster.Kill { at = at_us * 1_000_000; dev })
        kills
      @ List.map
          (fun (dev, at_us) -> Cluster.Restore { at = at_us * 1_000_000; dev })
          restores
    in
    (* the same seed must reproduce the same campaign, down to every
       device generation and latency quantile *)
    deterministic_run ~name:"cluster" ~diverged:"same seed diverged"
      ~run:(Cluster.run ~chaos cfg)
      ~canonical:Cluster.digest
      ~print:(fun r ->
        print_string (Cluster.render r);
        Printf.printf "digest: %s\n" (Cluster.digest r))
      ~problems:(fun r ->
        List.map (fun p -> "accounting: " ^ p) (Cluster.violations r)
        @ List.filter_map
            (fun (bad, msg) -> if bad then Some msg else None)
            [
              ( r.Cluster.c_lost_acked <> 0,
                Printf.sprintf "%d acknowledged commands lost"
                  r.Cluster.c_lost_acked );
              ( kills <> [] && r.Cluster.c_quarantines = 0,
                "a kill was scheduled but nothing quarantined" );
            ])
  end

let cluster_devices_arg =
  let doc = "Number of device slots in the fleet." in
  Arg.(value & opt int 4 & info [ "devices"; "d" ] ~docv:"N" ~doc)

let cluster_warm_arg =
  let doc =
    "Warm-pool size: slots beyond this boot as standby spares that the \
     elastic-promotion policy can pull in (default: all warm)."
  in
  Arg.(value & opt (some int) None & info [ "warm" ] ~docv:"N" ~doc)

let cluster_duration_arg =
  let doc = "Arrival-generation horizon, in simulated microseconds." in
  Arg.(value & opt int 600 & info [ "duration" ] ~docv:"US" ~doc)

let cluster_rate_arg =
  let doc = "Aggregate open-loop arrival rate, requests/second." in
  Arg.(value & opt float 30_000. & info [ "rate" ] ~docv:"RPS" ~doc)

let cluster_kill_arg =
  let doc =
    "Kill device $(i,DEV) at $(i,US) simulated microseconds (repeatable): \
     its engine freezes, the heartbeat monitor quarantines it, its \
     tenants drain and re-shard onto survivors."
  in
  Arg.(
    value
    & opt_all (pair ~sep:':' int int) []
    & info [ "kill" ] ~docv:"DEV:US" ~doc)

let cluster_restore_arg =
  let doc =
    "Restore device $(i,DEV) at $(i,US) simulated microseconds \
     (repeatable): a fresh SoC generation boots into the slot as a \
     standby spare."
  in
  Arg.(
    value
    & opt_all (pair ~sep:':' int int) []
    & info [ "restore" ] ~docv:"DEV:US" ~doc)

let cluster_curve_arg =
  let doc =
    "Instead of one campaign, sweep the device-loss degradation curve: \
     kill 0, 1, ... N-1 of the fleet's devices mid-campaign and print \
     achieved throughput and p99 against survivors."
  in
  Arg.(value & flag & info [ "curve" ] ~doc)

let cluster_cmd =
  let doc =
    "serve a multi-tenant workload across a heterogeneous device fleet"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Boots a fleet of simulated devices (AWS F1, Alveo U200 and Kria \
         shells, cycled), homes each tenant on a device by load and \
         locality, and serves the same deterministic request streams the \
         $(b,serve) campaign uses. A seeded heartbeat monitor drives the \
         health state machine (healthy, suspect, quarantined, dead, \
         standby); $(b,--kill) freezes a device so the monitor \
         quarantines it, drains it, and re-shards its tenants onto \
         survivors, replaying unacknowledged commands with bounded \
         backoff — at-least-once delivery with transaction-id \
         deduplication, so no acknowledged command is lost and none \
         applies twice. The campaign is run twice in-process; the run \
         exits 1 if the digests differ, any accounting invariant is \
         violated, an acknowledged command was lost, or a scheduled kill \
         quarantined nothing. It exits 2 on a usage error: fewer than one \
         device or microsecond, or a $(b,--kill) or $(b,--restore) whose \
         device is outside the fleet or whose time is negative.";
    ]
  in
  Cmd.v
    (Cmd.info "cluster" ~doc ~man)
    Term.(
      const cluster_run $ seed_arg $ cluster_devices_arg $ cluster_warm_arg
      $ cluster_duration_arg $ cluster_rate_arg $ cluster_kill_arg
      $ cluster_restore_arg $ cluster_curve_arg)

(* ---- scenario subcommand: declarative multi-phase workload graphs ---- *)

let scenario_run name seed list_only format =
  if list_only then
    List.iter
      (fun (n, mk) ->
        let sc = mk ~seed in
        Printf.printf "%-28s %s, %d nodes\n" n
          (match sc.Scenario.sc_backend with
          | Scenario.Single _ -> "single-device"
          | Scenario.Fleet _ -> "fleet")
          (List.length sc.Scenario.sc_nodes))
      Scenario.bundled
  else
    match Scenario.find_bundled name with
    | None ->
        Printf.eprintf "unknown scenario %S (try --list)\n" name;
        exit 2
    | Some mk ->
        (* the same scenario value must reproduce the same transcript,
           entry times and bindings included *)
        deterministic_run ~name:"scenario"
          ~diverged:"double-run transcripts differ"
          ~run:(fun () -> Scenario.run (mk ~seed))
          ~canonical:Scenario.transcript_json
          ~print:(fun r ->
            print_string
              (if format = "json" then Scenario.transcript_json r
               else Scenario.render r))
          ~problems:(fun r -> r.Scenario.res_failures)

let scenario_name_arg =
  let doc = "Bundled scenario to run (see $(b,--list))." in
  Arg.(
    value
    & opt string "warmup-ramp-hang-recover"
    & info [ "name" ] ~docv:"NAME" ~doc)

let scenario_list_arg =
  let doc = "List the bundled scenarios and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let scenario_format_arg =
  let doc = "Output format: text (human transcript) or json (byte-comparable)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let scenario_cmd =
  let doc = "execute a declarative multi-phase workload scenario" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a bundled scenario graph — traffic phases with \
         piecewise-linear rate curves, mid-run fault arming, cluster \
         chaos, bounded loops and assertions over the recorded reports — \
         against a single-device serving session or a device fleet, and \
         prints the per-node transcript (node, entry/exit simulated \
         time, bound variables, verdict). The scenario is executed twice \
         in-process; the run exits 1 if the two transcripts differ \
         byte-for-byte (determinism) or any scenario assertion failed.";
    ]
  in
  Cmd.v
    (Cmd.info "scenario" ~doc ~man)
    Term.(
      const scenario_run $ scenario_name_arg $ seed_arg $ scenario_list_arg
      $ scenario_format_arg)

(* ---- tune subcommand: closed-loop autotuner over composer knobs ---- *)

let tune_run seed budget knobs phase_us ab_rounds require_promotion format =
  let axes =
    if knobs = "all" then Tune.all_axes
    else
      List.map
        (fun n ->
          match Tune.axis_of_name (String.trim n) with
          | Some a -> a
          | None ->
              Printf.eprintf
                "unknown knob %S (try %s)\n" n
                (String.concat ", " (List.map Tune.axis_name Tune.all_axes));
              exit 2)
        (String.split_on_char ',' knobs)
  in
  (match format with
  | "text" | "json" -> ()
  | f ->
      Printf.eprintf "unknown format %S (text or json)\n" f;
      exit 2);
  if budget < 0 || ab_rounds < 1 || phase_us < 1 then begin
    Printf.eprintf "tune: budget must be >= 0, rounds >= 1, phase >= 1 us\n";
    exit 2
  end;
  let phase_ps = phase_us * 1_000_000 in
  (* the same arguments must reproduce the same Pareto front, byte for
     byte *)
  deterministic_run ~name:"tune" ~diverged:"double-run Pareto JSON differs"
    ~run:(Tune.run ~seed ~budget ~axes ~phase_ps ~ab_rounds)
    ~canonical:Tune.pareto_json
    ~print:(fun r ->
      print_string
        (if format = "json" then Tune.pareto_json r else Tune.render r))
    ~problems:(fun r ->
      List.map (fun v -> "violation: " ^ v) r.Tune.r_violations
      @
      if require_promotion && r.Tune.r_promotions = 0 then
        [ "no candidate was promoted over the seed configuration" ]
      else [])

let tune_budget_arg =
  let doc = "Number of one-knob proposals the search evaluates." in
  Arg.(value & opt int 6 & info [ "budget" ] ~docv:"N" ~doc)

let tune_knobs_arg =
  let doc =
    "Comma-separated knob axes to search ($(b,cores), $(b,batch), \
     $(b,core-cap)), or $(b,all)."
  in
  Arg.(value & opt string "all" & info [ "knobs" ] ~docv:"LIST" ~doc)

let tune_phase_arg =
  let doc = "Simulated serving time per A/B phase, in microseconds." in
  Arg.(value & opt int 100 & info [ "phase-us" ] ~docv:"N" ~doc)

let tune_rounds_arg =
  let doc = "Paired A/B phases per incumbent/challenger comparison." in
  Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"N" ~doc)

let tune_promote_arg =
  let doc =
    "Exit 1 unless at least one challenger was promoted over the seed \
     configuration (CI smoke check that the search finds the headroom \
     the conservative baseline leaves)."
  in
  Arg.(value & flag & info [ "require-promotion" ] ~doc)

let tune_cmd =
  let doc = "closed-loop autotuning over the composer's knobs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the seeded $(b,Tune) search: one-knob proposals over the \
         serving SoC's core count, batching cap and per-core bound. \
         Each candidate is pre-filtered \
         by the full composer DRC through an elaboration cache \
         ($(b,Beethoven.Elaborate.Cache)) keyed on each system's name \
         and kernel circuit, the only inputs of the per-system kernel \
         analysis (the serving systems have no kernel circuit, so every \
         candidate after the first is all hits) — then measured \
         live, once per candidate, over serving phases under \
         byte-identical offered load and compared phase by phase with \
         the incumbent; promotion requires a statistically-ordered win \
         (more paired phases won than lost on achieved rps, p99 as the \
         tiebreak, mean p99 not regressed beyond 10%). Prints the \
         candidate table or, \
         with $(b,--format json), the byte-deterministic Pareto front \
         (throughput vs p99) plus cache hit/miss \
         counts. The search runs twice in-process; the run exits 1 if \
         the two Pareto JSON documents differ byte-for-byte or any \
         serving accounting violation is recorded.";
    ]
    @ exit_status_man
  in
  Cmd.v
    (Cmd.info "tune" ~doc ~man)
    Term.(
      const tune_run $ seed_arg $ tune_budget_arg $ tune_knobs_arg
      $ tune_phase_arg $ tune_rounds_arg $ tune_promote_arg
      $ scenario_format_arg)

let gen_term =
  Term.(const run $ design_arg $ platform_arg $ cores_arg $ emit_arg $ out_arg)

let lint_cmd =
  let doc = "run the netlist linter and composer design-rule checker" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs $(b,Beethoven.Check) (composer design rules) and \
         $(b,Hw.Lint) (netlist rules, for RTL-DSL kernels) over bundled \
         designs. $(b,--format json) prints the diagnostics as one stable \
         line of JSON (objects with rule/severity/loc/message/hint plus \
         per-severity counts, the same schema $(b,sta --format json) \
         uses).";
      `S "RULES";
      `P
        (String.concat "; "
           (List.map
              (fun (id, sev, why) ->
                Printf.sprintf "$(b,%s) (%s) %s" id
                  (Hw.Diag.severity_name sev)
                  why)
              (Beethoven.Check.rules @ Hw.Lint.rules)));
    ]
    @ exit_status_man
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const lint $ lint_design_arg $ platform_arg $ cores_arg $ json_arg
      $ diag_format_arg $ werror_arg $ waive_arg)

let cmd =
  let doc = "compose a Beethoven accelerator system and emit its artifacts" in
  let info = Cmd.info "beethoven_gen" ~version:"1.0" ~doc in
  Cmd.group ~default:gen_term info
    [
      lint_cmd;
      sta_cmd;
      sim_cmd;
      fault_cmd;
      trace_cmd;
      serve_cmd;
      cluster_cmd;
      scenario_cmd;
      tune_cmd;
    ]

let () = exit (Cmd.eval cmd)
