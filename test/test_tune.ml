(* The closed-loop autotuner and its elaboration cache: cached
   elaboration must be indistinguishable from fresh elaboration (the
   cache-equivalence property), the search must be a deterministic
   function of its seed, and the cache must hit exactly when a system's
   name and kernel circuit are ones it has analyzed. *)

module B = Beethoven
module C = B.Config
module D = Platform.Device

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- random multi-system configurations ---- *)

(* Plain (TLM) systems in the shape of test_fuzz's generator, plus an
   optional RTL-DSL kernel system so the cached analyses (netlist lint,
   STA, circuit stats) are exercised on a non-trivial circuit. *)
let gen_config =
  QCheck.Gen.(
    let* n_systems = 1 -- 2 in
    let* systems =
      flatten_l
        (List.init n_systems (fun si ->
             let* n_cores = 1 -- 4 in
             let* n_read = 0 -- 2 in
             let* n_write = 0 -- 1 in
             let* n_spads = 0 -- 1 in
             let* spad_bits = oneofl [ 8; 32; 64 ] in
             let* spad_depth = 16 -- 1024 in
             let* burst = oneofl [ 8; 16; 32 ] in
             let* in_flight = 1 -- 4 in
             let* tlp = bool in
             return
               (C.system
                  ~name:(Printf.sprintf "S%d" si)
                  ~n_cores
                  ~read_channels:
                    (List.init n_read (fun i ->
                         C.read_channel
                           ~name:(Printf.sprintf "r%d" i)
                           ~data_bytes:4 ~burst_beats:burst
                           ~max_in_flight:in_flight ~use_tlp:tlp
                           ~buffer_beats:(4 * burst) ()))
                  ~write_channels:
                    (List.init n_write (fun i ->
                         C.write_channel
                           ~name:(Printf.sprintf "w%d" i)
                           ~data_bytes:4 ~burst_beats:burst
                           ~max_in_flight:in_flight ~use_tlp:tlp
                           ~buffer_beats:(4 * burst) ()))
                  ~scratchpads:
                    (List.init n_spads (fun i ->
                         C.scratchpad
                           ~name:(Printf.sprintf "sp%d" i)
                           ~data_bits:spad_bits ~n_datas:spad_depth ()))
                  ~commands:
                    [ B.Cmd_spec.make ~name:"go" ~funct:0 ~response_bits:32 [] ]
                  ())))
    in
    let* rtl = bool in
    let* rtl_cores = 1 -- 2 in
    let systems =
      if rtl then
        systems
        @ (Kernels.Vecadd_rtl.config ~n_cores:rtl_cores ()).C.systems
      else systems
    in
    return (C.make ~name:"tunefuzz" systems))

let arb_config = QCheck.make ~print:(fun c -> c.C.acc_name) gen_config

let prop name ?(count = 40) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* observable fingerprint of an elaboration: every cached artifact and
   the floorplan, rendered to stable text *)
let fingerprint (d : B.Elaborate.t) =
  String.concat "\n"
    ([
       Hw.Diag.render_json d.B.Elaborate.diagnostics;
       B.Floorplan.render d.B.Elaborate.floorplan;
     ]
    @ List.map
        (fun (n, r) -> n ^ ":" ^ Hw.Sta.to_json r)
        d.B.Elaborate.sta)

let elaboration f =
  match f () with d -> Ok d | exception e -> Error (Printexc.to_string e)

let outcome f = Result.map fingerprint (elaboration f)

(* ---- cache equivalence (the qcheck property) ---- *)

let test_cache_equivalence =
  prop "cached elaboration == fresh elaboration" arb_config (fun config ->
      let cache = B.Elaborate.Cache.create () in
      let elaborated =
        elaboration (fun () -> B.Elaborate.elaborate config D.aws_f1)
      in
      let fresh = Result.map fingerprint elaborated in
      let cold =
        outcome (fun () -> B.Elaborate.Cache.elaborate cache config D.aws_f1)
      in
      (* a second cached elaboration is all hits and still identical *)
      let warm =
        outcome (fun () -> B.Elaborate.Cache.elaborate cache config D.aws_f1)
      in
      (* the elaborated floorplan is Check.run's one placement: an
         independent placement of the same config agrees with it *)
      let placed_alike =
        match elaborated with
        | Error _ -> true
        | Ok d ->
            B.Floorplan.render d.B.Elaborate.floorplan
            = B.Floorplan.render (B.Floorplan.place config D.aws_f1)
      in
      fresh = cold && fresh = warm && placed_alike)

(* warm lookups really are hits (the equivalence above would also pass
   on a cache that never stored anything) *)
let test_cache_warm_hits () =
  let config = Kernels.Vecadd_rtl.config ~n_cores:2 () in
  let cache = B.Elaborate.Cache.create () in
  ignore (B.Elaborate.Cache.elaborate cache config D.aws_f1);
  check_int "cold misses" (List.length config.C.systems)
    (B.Elaborate.Cache.misses cache);
  ignore (B.Elaborate.Cache.elaborate cache config D.aws_f1);
  check_int "warm hits" (List.length config.C.systems)
    (B.Elaborate.Cache.hits cache);
  List.iter
    (fun (_, hit) -> check_bool "warm lookup is a hit" true hit)
    (B.Elaborate.Cache.last_lookups cache)

(* ---- cache hit-rate regression: one-knob delta ---- *)

(* The key is what the cached analysis reads, a system's name and its
   kernel circuit: a prefetch-depth delta on a multi-system config hits
   for every system, and a freshly built kernel circuit misses for its
   own system only. *)
let test_one_knob_delta () =
  let base =
    C.make ~name:"delta"
      ((Kernels.Vecadd_rtl.config ~n_cores:2 ()).C.systems
      @ (Attention.A3_rtl_core.config ~n_cores:1 ()).C.systems)
  in
  check_bool "multi-system config" true (List.length base.C.systems >= 2);
  let cache = B.Elaborate.Cache.create () in
  ignore (B.Elaborate.Cache.elaborate cache base D.aws_f1);
  let touched = (List.hd base.C.systems).C.sys_name in
  let edit f =
    {
      base with
      C.systems =
        List.map
          (fun (sys : C.system) ->
            if sys.C.sys_name = touched then f sys else sys)
          base.C.systems;
    }
  in
  let deeper_prefetch (sys : C.system) =
    {
      sys with
      C.read_channels =
        List.map
          (fun (rc : C.read_channel) ->
            { rc with C.rc_max_in_flight = rc.C.rc_max_in_flight + 1 })
          sys.C.read_channels;
    }
  in
  ignore (B.Elaborate.Cache.elaborate cache (edit deeper_prefetch) D.aws_f1);
  List.iter
    (fun (name, hit) ->
      check_bool (name ^ " hit after a prefetch delta") true hit)
    (B.Elaborate.Cache.last_lookups cache);
  let fresh_circuit (sys : C.system) =
    { sys with C.kernel_circuit = Some (Kernels.Vecadd_rtl.circuit ()) }
  in
  ignore (B.Elaborate.Cache.elaborate cache (edit fresh_circuit) D.aws_f1);
  List.iter
    (fun (name, hit) ->
      if name = touched then
        check_bool (name ^ " re-analyzed a fresh circuit") false hit
      else check_bool (name ^ " cache hit") true hit)
    (B.Elaborate.Cache.last_lookups cache)

(* ---- the Dse pre-filter shares the cache ---- *)

let test_dse_fit_cached () =
  let cache = B.Elaborate.Cache.create () in
  let config = Kernels.Vecadd_rtl.config ~n_cores:2 () in
  (match B.Dse.fit ~cache config D.aws_f1 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "vecadd-rtl should fit: %s" m);
  let misses = B.Elaborate.Cache.misses cache in
  (match B.Dse.fit ~cache config D.aws_f1 with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "second fit: %s" m);
  check_int "second fit is all hits" misses (B.Elaborate.Cache.misses cache);
  check_bool "hits recorded" true (B.Elaborate.Cache.hits cache > 0)

(* ---- tuner determinism and search behavior ---- *)

let tune_args = (7, 3, 1, 50_000_000)

let small_run () =
  let seed, budget, ab_rounds, phase_ps = tune_args in
  Tune.run ~seed ~budget ~ab_rounds ~phase_ps ()

let test_tune_deterministic () =
  let r1 = small_run () and r2 = small_run () in
  check_string "pareto JSON byte-identical" (Tune.pareto_json r1)
    (Tune.pareto_json r2)

let test_tune_result_shape () =
  let r = small_run () in
  check_int "seed candidate + budget proposals"
    (r.Tune.r_budget + 1)
    (List.length r.Tune.r_candidates);
  check_bool "no accounting violations" true (r.Tune.r_violations = []);
  check_bool "cache was exercised" true (r.Tune.r_cache_misses > 0);
  check_bool "cache hits across candidates" true (r.Tune.r_cache_hits > 0);
  let front = Tune.pareto r in
  check_bool "non-empty pareto front" true (front <> []);
  (* the final incumbent is never dominated *)
  check_bool "incumbent on the front" true
    (List.exists (fun c -> c.Tune.ca_id = r.Tune.r_best.Tune.ca_id) front)

let test_tune_promotion_improves () =
  (* the default-knob search must find a promotion, and the promoted
     incumbent must not be worse than the seed on either measured axis
     (this is the bench acceptance bar in miniature) *)
  let r = Tune.run ~seed:42 ~budget:6 () in
  check_bool "at least one promotion" true (r.Tune.r_promotions > 0);
  let score c =
    match c.Tune.ca_outcome with
    | Tune.Evaluated { ev_score; _ } -> ev_score
    | Tune.Infeasible m -> Alcotest.failf "unscored candidate: %s" m
  in
  let s0 =
    score (List.find (fun c -> c.Tune.ca_id = 0) r.Tune.r_candidates)
  in
  let sb = score r.Tune.r_best in
  check_bool "throughput not regressed" true
    (sb.Tune.sc_rps >= s0.Tune.sc_rps *. 0.99);
  check_bool "p99 not regressed beyond the rule" true
    (sb.Tune.sc_p99_us <= (s0.Tune.sc_p99_us *. 1.10) +. 1e-9)

let test_axis_names_roundtrip () =
  List.iter
    (fun ax ->
      match Tune.axis_of_name (Tune.axis_name ax) with
      | Some ax' -> check_bool (Tune.axis_name ax) true (ax = ax')
      | None -> Alcotest.failf "axis %s does not round-trip" (Tune.axis_name ax))
    Tune.all_axes;
  check_bool "unknown axis rejected" true (Tune.axis_of_name "bogus" = None)

let () =
  Alcotest.run "tune"
    [
      ( "cache",
        [
          test_cache_equivalence;
          Alcotest.test_case "warm lookups hit" `Quick test_cache_warm_hits;
          Alcotest.test_case "one-knob delta hits untouched systems" `Quick
            test_one_knob_delta;
          Alcotest.test_case "dse fit shares the cache" `Quick
            test_dse_fit_cached;
        ] );
      ( "search",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_tune_deterministic;
          Alcotest.test_case "result shape" `Quick test_tune_result_shape;
          Alcotest.test_case "promotion improves on the seed" `Slow
            test_tune_promotion_improves;
          Alcotest.test_case "axis names round-trip" `Quick
            test_axis_names_roundtrip;
        ] );
    ]
