(* The repo benchmark. One command runs one workload in one
   single-threaded process:

     dune exec bench/perf/perf.exe -- --workload W --seed S
       [--seconds N] [--units N] [--trace 0|1] [--jsonl FILE]

   It prints every metric with its unit as a table, then one JSON line
   as the last line of stdout. With --trace 0 the metrics are the
   end-to-end ones. With --trace 1 the first units run a second time
   traced (the simulated-time tracer plus bench-side host spans), the
   per-layer probes run, the per-layer metrics are reported, and the
   trace is written to _perf/. The exit code is 1 when any correctness
   check fails.

     perf.exe compare A.jsonl B.jsonl   medians, quartiles and flags
     perf.exe spec                      the BENCHMARK.json defined here *)

module W = Workloads

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end only: the share of the parent's median by which the
          metric may worsen before a change counts as a regression *)
  exact : bool;  (** simulated: repeats exactly for a given seed *)
}

let m ?bound ?(exact = false) name unit_ better =
  { name; unit_; better; bound; exact }

(* Host metrics use the monotonic clock and are medians over units;
   "sim_" units are simulated, not host, time. Host-time bounds are the
   widest allowed because host speed on the shared reference machine
   drifts by about 10% over tens of seconds (README.md). *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "unit_ms_p50" "ms" Lower ~bound:0.25;
    m "host_req_per_s" "req/s" Higher ~bound:0.25;
    m "sim_us_per_host_s" "sim_us/s" Higher ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.10;
    m "sim_goodput_rps" "sim_req/s" Higher ~bound:0.10 ~exact:true;
    m "sim_p99_us" "sim_us" Lower ~bound:0.25 ~exact:true;
  ]

(* 0 means the workload does not exercise the layer. The p90 of host
   unit time is here rather than end to end: on the shared reference
   machine its spread across runs exceeds the widest allowed bound. *)
let per_layer =
  [
    m "bench.unit_ms_p90" "ms" Lower;
    m "beethoven.elaborate_ms" "ms" Lower;
    m "beethoven.elaborate_cached_ms" "ms" Lower;
    m "beethoven.soc_create_ms" "ms" Lower;
    m "runtime.handle_create_ms" "ms" Lower;
    m "cluster.restore_ms" "ms" Lower;
    m "desim.ns_per_event" "ns" Lower;
    m "dram.ns_per_burst" "ns" Lower;
    m "hw.sim_cycles_per_s" "cycles/s" Higher;
    m "desim.quantile_ms" "ms" Lower;
    m "gc.minor_words_per_req" "words/req" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.top_heap_mb" "MB" Lower;
    m "runtime.server_busy_frac" "ratio" Lower ~exact:true;
    m "serve.cmds_per_batch" "cmd/batch" Higher ~exact:true;
    m "serve.queue_wait_p99_us" "sim_us" Lower ~exact:true;
    m "noc.cmd_messages_per_req" "msg/req" Lower ~exact:true;
    m "dram.bursts_per_req" "burst/req" Lower ~exact:true;
    m "dram.row_hit_ratio" "ratio" Higher ~exact:true;
    m "dram.bank_conflicts_per_req" "conflict/req" Lower ~exact:true;
    m "axi.read_latency_p99_ns" "sim_ns" Lower ~exact:true;
    m "cluster.quarantines" "count" Lower ~exact:true;
    m "cluster.promotions" "count" Lower ~exact:true;
    m "cluster.generations" "count" Lower ~exact:true;
    m "rtl.cycles_per_query" "cycles" Lower ~exact:true;
    m "trace.unit_ms_p50" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let all_metrics = end_to_end @ per_layer
let find_metric name = List.find_opt (fun m -> m.name = name) all_metrics

(* ------------------------------------------------------------------ *)
(* Running a workload                                                 *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float;
  units : (W.outcome * float) list;  (** timed units with host seconds *)
  chain : string array;
      (** sim_digest so far: FNV over the unit digests up to the warm-up
          (index 0) and up to each timed unit *)
  violations : string list;
  before : W.counters;  (** after the warm-up *)
  after : W.counters;  (** after the timed units *)
  minor_words : float;
  major_collections : int;
  top_heap_mb : float;
  rss_mb : float;
  tracer : Trace.t option;
}

(* Units the traced pass repeats: the simulated tracer keeps every span
   in memory. *)
let traced_units = 20

let run_pass (w : W.t) ~seed ~units ~traced =
  let inst, setup_s =
    Meter.timed (fun () ->
        Meter.span ~layer:"bench" "setup" (fun () -> w.setup ~seed ~traced))
  in
  Gc.compact ();
  let digest = ref Meter.fnv_offset and chain = ref [] and violations = ref [] in
  let record (o : W.outcome) =
    digest := Meter.fnv !digest o.digest;
    chain := Meter.hex64 !digest :: !chain;
    violations := List.rev_append o.violations !violations
  in
  (* the warm-up fills DRAM row buffers and lazy per-core state *)
  record (Meter.span ~layer:"bench" "warm-up" (fun () -> inst.step 0));
  let before = inst.counters () in
  let g0 = Gc.quick_stat () in
  let timed = ref [] in
  for i = 1 to units do
    let o, dt =
      Meter.timed (fun () ->
          Meter.span ~layer:"bench" "unit" (fun () -> inst.step i))
    in
    record o;
    timed := (o, dt) :: !timed
  done;
  let g1 = Gc.quick_stat () in
  let rss_mb = Meter.peak_rss_mb () in
  {
    setup_s;
    units = List.rev !timed;
    chain = Array.of_list (List.rev !chain);
    violations = List.rev !violations;
    before;
    after = inst.counters ();
    minor_words = g1.minor_words -. g0.minor_words;
    major_collections = g1.major_collections - g0.major_collections;
    top_heap_mb =
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    rss_mb;
    tracer = inst.tracer;
  }

let digest p = p.chain.(Array.length p.chain - 1)
let outcomes p = List.map fst p.units
let total f p = List.fold_left (fun a o -> a + f o) 0 (outcomes p)
let unit_ms p = List.map (fun (_, dt) -> dt *. 1000.) p.units
let median_of_units f p = Meter.median (List.map f (outcomes p))

let end_to_end_values p ~setups =
  let per_host_s f = Meter.median (List.map (fun (o, dt) -> f o /. dt) p.units) in
  [
    ("setup_s", Meter.median setups);
    ("unit_ms_p50", Meter.median (unit_ms p));
    ("host_req_per_s", per_host_s (fun o -> float_of_int o.W.completed));
    ("sim_us_per_host_s", per_host_s (fun o -> float_of_int o.W.sim_ps /. 1e6));
    ("peak_rss_mb", p.rss_mb);
    ( "sim_goodput_rps",
      float_of_int (total (fun o -> o.W.completed) p)
      /. (float_of_int (total (fun o -> o.W.sim_ps) p) /. 1e12) );
    ("sim_p99_us", median_of_units (fun o -> o.W.p99_us) p);
  ]

let per_layer_values p ~traced ~probes =
  let completed = float_of_int (total (fun o -> o.W.completed) p) in
  let delta f = f p.after - f p.before in
  let per_req f = float_of_int (delta f) /. completed in
  let bursts = delta (fun c -> c.W.bursts) in
  let batches = total (fun o -> o.W.batches) p in
  let restores = List.filter_map (fun o -> o.W.restore_s) (outcomes p) in
  (* the traced pass covers the first units only; compare like with like *)
  let traced_p50 = Meter.median (unit_ms traced) in
  let p50 =
    Meter.median (List.filteri (fun i _ -> i < List.length traced.units) (unit_ms p))
  in
  [
    ("bench.unit_ms_p90", Meter.quantile (unit_ms p) 0.9);
    ( "cluster.restore_ms",
      if restores = [] then 0. else 1000. *. Meter.median restores );
    ("gc.minor_words_per_req", p.minor_words /. completed);
    ("gc.major_collections", float_of_int p.major_collections);
    ("gc.top_heap_mb", p.top_heap_mb);
    ( "runtime.server_busy_frac",
      float_of_int (delta (fun c -> c.W.busy_ps))
      /. float_of_int (total (fun o -> o.W.sim_ps) p * p.after.W.servers) );
    ( "serve.cmds_per_batch",
      if batches = 0 then 0.
      else float_of_int (total (fun o -> o.W.batched) p) /. float_of_int batches
    );
    ("serve.queue_wait_p99_us", median_of_units (fun o -> o.W.queue_p99_us) p);
    ("noc.cmd_messages_per_req", per_req (fun c -> c.W.noc_msgs));
    ("dram.bursts_per_req", per_req (fun c -> c.W.bursts));
    ( "dram.row_hit_ratio",
      if bursts = 0 then 0.
      else float_of_int (delta (fun c -> c.W.row_hits)) /. float_of_int bursts );
    ("dram.bank_conflicts_per_req", per_req (fun c -> c.W.conflicts));
    ("axi.read_latency_p99_ns", p.after.W.axi_rd_p99_ns);
    ("cluster.quarantines", float_of_int (delta (fun c -> c.W.quarantines)));
    ("cluster.promotions", float_of_int (delta (fun c -> c.W.promotions)));
    ("cluster.generations", float_of_int (delta (fun c -> c.W.generations)));
    ("rtl.cycles_per_query", median_of_units (fun o -> o.W.rtl_cycles) p);
    ("trace.unit_ms_p50", traced_p50);
    ("trace.overhead_pct", 100. *. ((traced_p50 /. p50) -. 1.));
  ]
  @ probes

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The traced run's report: per-layer host self time from the bench-side
   spans of the traced pass and of the probes, then the simulated
   tracer's counters. *)
let layers_report (w : W.t) (p : pass) =
  let b = Buffer.create 4096 in
  List.iter
    (fun root ->
      let rows = Meter.self_times ~root in
      let total = List.fold_left (fun a (_, _, s) -> a +. s) 0. rows in
      Printf.bprintf b "host self time by layer (%s, %s)\n" w.name root;
      Printf.bprintf b "  %-12s %7s %12s %7s\n" "layer" "spans" "self ms" "share";
      List.iter
        (fun (layer, n, s) ->
          Printf.bprintf b "  %-12s %7d %12.3f %6.1f%%\n" layer n (s *. 1000.)
            (100. *. s /. total))
        rows)
    [ "traced pass"; "probes" ];
  Option.iter
    (fun tr ->
      Printf.bprintf b "simulated counters\n";
      List.iter
        (fun (k, v) -> Printf.bprintf b "  %-40s %d\n" k v)
        (Trace.Counters.snapshot tr))
    p.tracer;
  Buffer.contents b

let json_metrics values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let unit_ = (Option.get (find_metric name)).unit_ in
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
       values)

let run ~workload ~seed ~seconds ~units ~trace ~jsonl =
  let w =
    match List.find_opt (fun (w : W.t) -> w.name = workload) W.all with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
        exit 2
  in
  let units =
    match units with
    | Some n -> n
    | None -> max 1 (int_of_float (Float.round (seconds *. w.units_per_s)))
  in
  let p = run_pass w ~seed ~units ~traced:false in
  let fails = ref p.violations in
  let values =
    if not trace then begin
      (* four more fresh set-ups after the timed units, each followed by
         a compaction, so setup_s is a median of five *)
      let setups =
        p.setup_s
        :: List.init 4 (fun _ ->
               Gc.compact ();
               snd (Meter.timed (fun () -> ignore (w.setup ~seed ~traced:false))))
      in
      end_to_end_values p ~setups
    end
    else begin
      let k = min units traced_units in
      Meter.recording := true;
      let tp =
        Meter.span ~layer:"bench" "traced pass" (fun () ->
            run_pass w ~seed ~units:k ~traced:true)
      in
      let probes =
        Meter.span ~layer:"bench" "probes" (fun () -> Layers.all ~fails w.system)
      in
      Meter.recording := false;
      fails := tp.violations @ !fails;
      if digest tp <> p.chain.(k) then
        fails :=
          Printf.sprintf
            "traced sim_digest %s differs from untraced %s after %d units"
            (digest tp) p.chain.(k) k
          :: !fails;
      let host = Meter.to_trace () in
      List.iter (fun e -> fails := ("host trace: " ^ e) :: !fails) (Trace.check host);
      let report = layers_report w tp in
      if not (Sys.file_exists "_perf") then Sys.mkdir "_perf" 0o755;
      write_file (Printf.sprintf "_perf/%s.trace.json" w.name)
        (Trace.to_chrome_json host);
      write_file (Printf.sprintf "_perf/%s.layers.txt" w.name) report;
      print_string report;
      Printf.printf "wrote _perf/%s.trace.json and _perf/%s.layers.txt\n" w.name
        w.name;
      per_layer_values p ~traced:tp ~probes
    end
  in
  let attempted = total (fun o -> o.W.attempted) p in
  let failed = total (fun o -> o.W.failed) p in
  let correct = !fails = [] in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev !fails);
  Printf.printf "%s seed %d: %d timed units, %d requests, %d failed, sim_digest %s\n"
    w.name seed units attempted failed (digest p);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-32s %16.6g %s\n" name v
        (Option.get (find_metric name)).unit_)
    values;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", json_metrics values);
    ]
  in
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          ([
             ("workload", Json.Str w.name);
             ("seed", Json.Num (float_of_int seed));
             ("trace", Json.Bool trace);
             ("units", Json.Num (float_of_int units));
             ("sim_digest", Json.Str (digest p));
           ]
          @ result)
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file
        (fun oc -> Out_channel.output_string oc (Json.to_string record ^ "\n")))
    jsonl;
  print_endline (Json.to_string (Json.Obj result));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

type record = {
  r_workload : string;
  r_trace : bool;
  r_seed : int;
  r_units : int;
  r_digest : string;
  r_correct : bool;
  r_metrics : (string * float) list;
}

let load file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse line in
         let get k =
           match Json.member k j with
           | Some v -> v
           | None -> failwith (Printf.sprintf "%s: record without %S" file k)
         in
         match
           (get "workload", get "trace", get "seed", get "units",
            get "sim_digest", get "correct", get "metrics")
         with
         | Str w, Bool t, Num s, Num u, Str d, Bool c, Obj ms ->
             {
               r_workload = w;
               r_trace = t;
               r_seed = int_of_float s;
               r_units = int_of_float u;
               r_digest = d;
               r_correct = c;
               r_metrics =
                 List.filter_map
                   (fun (k, v) ->
                     match Json.member "value" v with
                     | Some (Num x) -> Some (k, x)
                     | _ -> None)
                   ms;
             }
         | _ -> failwith (Printf.sprintf "%s: malformed record" file))

let dedup l = List.fold_left (fun a x -> if List.mem x a then a else a @ [ x ]) [] l

let compare_files fa fb =
  let a = load fa and b = load fb in
  let flags = ref [] in
  let flag kind msg = flags := (kind, msg) :: !flags in
  List.iter
    (fun r ->
      if not r.r_correct then
        flag "INCORRECT" (Printf.sprintf "%s seed %d" r.r_workload r.r_seed))
    (a @ b);
  let groups = dedup (List.map (fun r -> (r.r_workload, r.r_trace)) (a @ b)) in
  List.iter
    (fun (w, t) ->
      let side l = List.filter (fun r -> r.r_workload = w && r.r_trace = t) l in
      let ra = side a and rb = side b in
      Printf.printf "\n%s (%s)  A: %d runs  B: %d runs\n" w
        (if t then "traced" else "untraced")
        (List.length ra) (List.length rb);
      Printf.printf "  %-30s %-40s %-40s %8s\n" "metric" "A median [q1, q3] spread"
        "B median [q1, q3] spread" "B/A-1";
      let stats vs =
        let med = Meter.median vs in
        let q1 = Meter.quantile vs 0.25 and q3 = Meter.quantile vs 0.75 in
        let spread = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
        (med, Printf.sprintf "%.6g [%.6g, %.6g] %.1f%%" med q1 q3 (100. *. spread))
      in
      List.iter
        (fun m ->
          let values rs = List.filter_map (fun r -> List.assoc_opt m.name r.r_metrics) rs in
          match (values ra, values rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let ma, sa = stats va and mb, sb = stats vb in
              let d = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
              let worse = match m.better with Lower -> d > 0. | Higher -> d < 0. in
              let note =
                match m.bound with
                | Some bound when (not m.exact) && Float.abs d > bound ->
                    let kind = if worse then "REGRESSED" else "improved" in
                    flag kind
                      (Printf.sprintf "%s %s: %+.1f%% (bound %.0f%%)" w m.name
                         (100. *. d) (100. *. bound));
                    kind
                | _ -> ""
              in
              Printf.printf "  %-30s %-40s %-40s %+7.1f%% %s\n" m.name sa sb
                (100. *. d) note)
        all_metrics;
      (* simulated results repeat exactly for a seed and run length, within
         and across sides *)
      let exact = List.filter (fun m -> m.exact) all_metrics in
      let key r =
        r.r_digest
        :: List.filter_map
             (fun m ->
               Option.map (Printf.sprintf "%s=%h" m.name)
                 (List.assoc_opt m.name r.r_metrics))
             exact
      in
      let run r = (r.r_seed, r.r_units) in
      List.iter
        (fun (seed, units) ->
          let same = List.filter (fun r -> run r = (seed, units)) (ra @ rb) in
          if List.length (dedup (List.map key same)) > 1 then
            flag "CHANGED"
              (Printf.sprintf
                 "%s seed %d, %d units: sim_digest or an exact metric differs" w
                 seed units))
        (dedup (List.map run (ra @ rb))))
    groups;
  let flags = List.rev !flags in
  Printf.printf "\n";
  List.iter (fun (k, msg) -> Printf.printf "%s %s\n" k msg) flags;
  let count k = List.length (List.filter (fun (k', _) -> k' = k) flags) in
  Printf.printf "%d regressed, %d improved, %d changed, %d incorrect\n"
    (count "REGRESSED") (count "improved") (count "CHANGED") (count "INCORRECT");
  if List.exists (fun (k, _) -> k <> "improved") flags then exit 1

(* ------------------------------------------------------------------ *)
(* spec: BENCHMARK.json                                               *)
(* ------------------------------------------------------------------ *)

let run_seconds = 10

let spec () =
  let metric m =
    let better = match m.better with Lower -> "lower" | Higher -> "higher" in
    Json.to_string
      (Json.Obj
         ([ ("name", Json.Str m.name); ("unit", Json.Str m.unit_);
            ("better", Json.Str better) ]
         @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> []))
  in
  let block items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]" in
  Printf.printf
    "{\n\
    \  \"command\": [\"dune\", \"exec\", \"bench/perf/perf.exe\", \"--\"],\n\
    \  \"paths\": [\"bench/perf\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": %s,\n\
    \  \"end_to_end\": %s,\n\
    \  \"per_layer\": %s\n\
     }\n"
    run_seconds
    (block
       (List.map
          (fun (w : W.t) ->
            Json.to_string
              (Json.Obj [ ("name", Json.Str w.name); ("why", Json.Str w.why) ]))
          W.all))
    (block (List.map metric end_to_end))
    (block (List.map metric per_layer))

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ fa; fb ] -> compare_files fa fb
  | _ :: "spec" :: [] -> spec ()
  | _ ->
      let workload = ref "" and seed = ref 42 and seconds = ref 10.
      and units = ref None and trace = ref 0 and jsonl = ref None in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "W one of the workloads");
          ("--seed", Arg.Set_int seed, "N input seed (default 42)");
          ( "--seconds",
            Arg.Set_float seconds,
            "S run length: S x the workload's units per second (default 10)" );
          ( "--units",
            Arg.Int (fun n -> units := Some n),
            "N timed units, overriding --seconds" );
          ("--trace", Arg.Set_int trace, "0|1 traced run with per-layer metrics");
          ( "--jsonl",
            Arg.String (fun f -> jsonl := Some f),
            "FILE append the full run record (for compare)" );
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "perf.exe --workload W --seed S [options]\n\
         perf.exe compare A.jsonl B.jsonl\n\
         perf.exe spec";
      if
        !workload = ""
        || (!trace <> 0 && !trace <> 1)
        || Option.fold ~none:(!seconds <= 0.) ~some:(fun n -> n < 1) !units
      then begin
        prerr_endline
          "perf: --workload is required, --trace is 0 or 1, and the run needs \
           at least one unit";
        exit 2
      end;
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~units:!units
        ~trace:(!trace = 1) ~jsonl:!jsonl
