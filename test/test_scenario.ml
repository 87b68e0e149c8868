(* Scenario DSL: executor determinism over random graphs, loop/budget
   bounds, single-phase equivalence with the plain serving entry point,
   constant-curve regression against historical reports, and snapshot
   non-perturbation. *)

module S = Serve
module Sc = Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qcheck ?(count = 30) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- shared fixtures ---- *)

let small_tenant ?(rate = 60_000.) ?curve () =
  S.Tenant.make ~name:"t" ~weight:1.0 ~clients:2
    ~mix:[ S.Mix.memcpy ~bytes:4096 () ]
    ~load:(S.Tenant.open_loop ?curve ~rate_rps:rate ())
    ()

let small_cfg ?(seed = 42) ?(duration_ps = 40_000_000) ?tenants () =
  let tenants =
    match tenants with Some ts -> ts | None -> [ small_tenant () ]
  in
  S.config ~seed ~duration_ps ~n_cores:1 ~core_cap:2 ~tenants ()

let single ?(seed = 42) cfg =
  Sc.Single { sg_cfg = { cfg with S.c_seed = seed }; sg_plan = None }

(* ---- random scenario graphs are deterministic ---- *)

let phase label duration_ps =
  Sc.Act
    (Sc.Serve_phase
       { sp_label = label; sp_duration_ps = duration_ps; sp_tenants = None })

(* A small vocabulary of nodes, indexed so QCheck shrinks nicely. The
   graphs mix traffic phases, sleeps, bindings, conditionals, bounded
   loops, asserts (some deliberately failing: determinism must hold for
   failing runs too) and an injector-less hang request (records a
   failure verdict and continues). *)
let node_of_tag tag =
  match tag mod 8 with
  | 0 -> phase "p" 25_000_000
  | 1 -> Sc.Act (Sc.Sleep 5_000_000)
  | 2 -> Sc.Let ("x", Sc.Stat (Sc.P95, "t"))
  | 3 ->
      Sc.Assert
        {
          a_cond = Sc.Cmp (Sc.Ge, Sc.Counter Sc.Wall_us, Sc.Const 0.);
          a_msg = "wall clock went negative";
        }
  | 4 ->
      Sc.If
        {
          if_cond = Sc.Cmp (Sc.Gt, Sc.Var "x", Sc.Const 0.);
          if_then = [ Sc.Act (Sc.Sleep 1_000_000) ];
          if_else = [ Sc.Let ("y", Sc.Const 1.) ];
        }
  | 5 ->
      Sc.While
        {
          w_cond = Sc.Cmp (Sc.Lt, Sc.Var "trips", Sc.Const 2.);
          w_max_trips = 2;
          w_body = [ Sc.Let ("trips", Sc.Const 2.) ];
        }
  | 6 ->
      Sc.Act
        (Sc.Inject_hang
           { ih_dev = 0; ih_system = 0; ih_core = 0; ih_after = 1 })
  | _ ->
      Sc.Assert
        {
          a_cond = Sc.Cmp (Sc.Lt, Sc.Counter Sc.Wall_us, Sc.Const 0.);
          a_msg = "deliberately failing assert";
        }

let prop_transcript_deterministic =
  qcheck ~count:6 "random scenario graphs replay byte-identically"
    QCheck.(pair (int_range 0 1000) (list_of_size (Gen.int_range 1 5) (int_range 0 100)))
    (fun (seed, tags) ->
      let nodes = List.map node_of_tag tags in
      let sc =
        Sc.make ~name:"rand" ~seed ~backend:(single ~seed (small_cfg ())) nodes
      in
      let a = Sc.transcript_json (Sc.run sc) in
      let b = Sc.transcript_json (Sc.run sc) in
      a = b)

(* ---- loop bounds and the node budget ---- *)

(* a run executes at most this many nodes *)
let max_nodes = 256

let spin_scenario ~trips =
  Sc.make ~name:"spin" ~seed:1
    ~backend:(single (small_cfg ()))
    [
      Sc.While
        {
          w_cond = Sc.Cmp (Sc.Ge, Sc.Const 1., Sc.Const 0.);
          (* always true *)
          w_max_trips = trips;
          w_body = [ Sc.Let ("i", Sc.Const 1.) ];
        };
    ]

let prop_budget_honored =
  qcheck ~count:20 "execution never runs past the node budget"
    QCheck.(int_range 1 1000)
    (fun trips ->
      let res = Sc.run (spin_scenario ~trips) in
      List.length res.Sc.res_entries <= max_nodes)

let test_trip_bound () =
  (* with a generous budget, an always-true loop runs exactly
     w_max_trips trips: one entry per body node per trip, plus the
     loop's own entry *)
  let res = Sc.run (spin_scenario ~trips:7) in
  check_bool "scenario ok" true res.Sc.res_ok;
  check_int "7 body entries + the loop entry" 8
    (List.length res.Sc.res_entries)

let test_budget_exhaustion_is_a_failure () =
  let res = Sc.run (spin_scenario ~trips:1000) in
  check_bool "budget exhaustion fails the run" false res.Sc.res_ok;
  check_bool "a failure names the budget" true
    (List.exists (fun m -> contains m "budget") res.Sc.res_failures)

(* ---- single-phase scenario == plain Serve.run ---- *)

let prop_single_phase_matches_plain_run =
  qcheck ~count:4 "one constant-rate serve node observes the plain run"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let cfg = small_cfg ~seed () in
      let sc =
        Sc.make ~name:"one-phase" ~seed ~backend:(single ~seed cfg)
          [ phase "only" cfg.S.c_duration_ps ]
      in
      let res = Sc.run sc in
      let plain = S.run cfg () in
      res.Sc.res_ok
      && res.Sc.res_obs = Sc.obs_of_serve plain
      && S.digest plain = S.digest (S.run cfg ()))

(* ---- constant-curve regression ---- *)

(* an Open_loop tenant carrying [Curve.const r] must reproduce the
   historical no-curve report byte-for-byte: the thinning sampler
   degenerates to the exact single-rate draw sequence. *)
let prop_constant_curve_is_historical =
  qcheck ~count:5 "constant rate curve replays the curveless report"
    QCheck.(pair (int_range 0 1000) (int_range 20 200))
    (fun (seed, krps) ->
      let rate = float_of_int krps *. 1000. in
      let flat = small_cfg ~seed ~tenants:[ small_tenant ~rate () ] () in
      let curved =
        small_cfg ~seed
          ~tenants:[ small_tenant ~rate ~curve:(S.Curve.const rate) () ]
          ()
      in
      S.digest (S.run flat ()) = S.digest (S.run curved ()))

(* a genuinely varying curve must not silently degenerate: drive the
   same tenant through a 10x ramp and expect a different arrival set *)
let test_varying_curve_changes_arrivals () =
  let rate = 60_000. in
  let curve = S.Curve.make [ (0, rate); (40_000_000, 10. *. rate) ] in
  let flat = small_cfg ~tenants:[ small_tenant ~rate () ] () in
  let curved = small_cfg ~tenants:[ small_tenant ~rate ~curve () ] () in
  check_bool "ramped curve diverges from flat" false
    (S.digest (S.run flat ()) = S.digest (S.run curved ()))

(* ---- snapshot non-perturbation ---- *)

let test_snapshot_does_not_perturb () =
  let cfg = small_cfg ~seed:7 () in
  let straight = S.run cfg () in
  let s = S.Session.create cfg () in
  S.Session.start_phase s ~duration_ps:cfg.S.c_duration_ps;
  S.Session.advance s ~until:(cfg.S.c_duration_ps / 3);
  ignore (S.Session.snapshot s);
  S.Session.advance s ~until:(2 * cfg.S.c_duration_ps / 3);
  ignore (S.Session.snapshot s);
  ignore (S.Session.snapshot s);
  let probed = S.Session.finish_phase s in
  check_string "mid-phase snapshots leave the report byte-identical"
    (S.digest straight) (S.digest probed)

(* ---- conditions over a real run ---- *)

let test_conditions_see_the_phase () =
  let cfg = small_cfg ~seed:3 () in
  let sc =
    Sc.make ~name:"cond" ~seed:3 ~backend:(single ~seed:3 cfg)
      [
        phase "p" cfg.S.c_duration_ps;
        Sc.Let ("done", Sc.Stat (Sc.Completed, "t"));
        Sc.Assert
          {
            a_cond = Sc.Cmp (Sc.Ge, Sc.Var "done", Sc.Const 1.);
            a_msg = "no request completed";
          };
        Sc.Assert
          {
            a_cond =
              Sc.Cmp (Sc.Eq, Sc.Stat (Sc.Completed, "*"), Sc.Var "done");
            a_msg = "aggregate disagrees with the only tenant";
          };
      ]
  in
  let res = Sc.run sc in
  check_bool "assertions hold" true res.Sc.res_ok;
  check_bool "wall clock advanced" true (res.Sc.res_obs.Sc.ob_wall_us > 0.)

(* ---- chaos actions are rejected off-fleet ---- *)

let test_chaos_requires_fleet () =
  let cfg = small_cfg () in
  let sc =
    Sc.make ~name:"chaos-single" ~seed:1 ~backend:(single cfg)
      [ Sc.Act (Sc.Kill 0); Sc.Act Sc.Promote ]
  in
  let res = Sc.run sc in
  check_bool "single-device chaos fails the run" false res.Sc.res_ok;
  check_int "both actions record failures" 2 (List.length res.Sc.res_failures)

(* ---- expressions that name nothing fail the node ---- *)

let test_unresolved_names_fail () =
  let cfg = small_cfg ~seed:3 () in
  let sc =
    Sc.make ~name:"typos" ~seed:3 ~backend:(single ~seed:3 cfg)
      [
        phase "p" cfg.S.c_duration_ps;
        Sc.Assert
          {
            a_cond = Sc.Cmp (Sc.Lt, Sc.Stat (Sc.P95, "typo"), Sc.Const 250.);
            a_msg = "p95 over the bar";
          };
        Sc.Let ("y", Sc.Var "nope");
        Sc.If
          {
            if_cond = Sc.Cmp (Sc.Gt, Sc.Var "nope", Sc.Const 0.);
            if_then = [ Sc.Let ("then_ran", Sc.Const 1.) ];
            if_else = [ Sc.Let ("else_ran", Sc.Const 1.) ];
          };
        Sc.While
          {
            w_cond = Sc.Cmp (Sc.Lt, Sc.Stat (Sc.Completed, "typo"), Sc.Const 1.);
            w_max_trips = 3;
            w_body = [ Sc.Let ("trip", Sc.Const 1.) ];
          };
      ]
  in
  let res = Sc.run sc in
  check_bool "the run fails" false res.Sc.res_ok;
  let failures = res.Sc.res_failures in
  check_int "assert, let, if and while each fail" 4 (List.length failures);
  check_bool "the assert names the tenant" true
    (contains (List.nth failures 0) "typo");
  List.iter
    (fun i ->
      check_bool "the node names the variable" true
        (contains (List.nth failures i) "nope"))
    [ 1; 2 ];
  check_bool "the while names the tenant" true
    (contains (List.nth failures 3) "typo");
  check_int "no branch and no loop trip ran" 5 (List.length res.Sc.res_entries);
  List.iter
    (fun en -> check_int "nothing was bound" 0 (List.length en.Sc.en_bindings))
    res.Sc.res_entries

(* ---- a quantile with no samples fails the node ---- *)

let test_quantile_without_samples_fails () =
  (* at 1 rps the idle tenant's first arrival lands after the phase *)
  let idle =
    S.Tenant.make ~name:"idle" ~weight:1.0 ~clients:1
      ~mix:[ S.Mix.memcpy ~bytes:4096 () ]
      ~load:(S.Tenant.open_loop ~rate_rps:1. ())
      ()
  in
  let cfg = small_cfg ~seed:3 ~tenants:[ small_tenant (); idle ] () in
  let sc =
    Sc.make ~name:"no-samples" ~seed:3 ~backend:(single ~seed:3 cfg)
      [
        Sc.Let ("before", Sc.Stat (Sc.P99, "*"));
        phase "p" cfg.S.c_duration_ps;
        Sc.Assert
          {
            a_cond = Sc.Cmp (Sc.Eq, Sc.Stat (Sc.Completed, "idle"), Sc.Const 0.);
            a_msg = "the idle tenant completed a request";
          };
        Sc.Assert
          {
            a_cond = Sc.Cmp (Sc.Lt, Sc.Stat (Sc.P99, "idle"), Sc.Const 1.);
            a_msg = "p99 under 1 us";
          };
        Sc.Let ("worst", Sc.Stat (Sc.P99, "*"));
        Sc.Let ("t_p99", Sc.Stat (Sc.P99, "t"));
      ]
  in
  let res = Sc.run sc in
  check_bool "the run fails" false res.Sc.res_ok;
  (match res.Sc.res_failures with
  | [ before; p99 ] ->
      check_bool "\"*\" with no tenant fails" true (contains before "p99(*)");
      check_bool "the assert names the idle tenant" true
        (contains p99 "p99(idle)")
  | fs -> Alcotest.failf "expected 2 failures, got %d" (List.length fs));
  let last = List.nth res.Sc.res_entries 5 in
  let bound name = List.assoc name last.Sc.en_bindings in
  check_bool "t completed requests" true (bound "t_p99" > 0.);
  check_bool "\"*\" is the worst tenant with samples" true
    (bound "worst" = bound "t_p99")

(* ---- a health condition on a slot the observation lacks fails ---- *)

let test_health_of_missing_slot_fails () =
  let tenants =
    [
      S.Tenant.make ~name:"a" ~clients:1
        ~mix:[ S.Mix.memcpy ~bytes:4096 () ]
        ~load:(S.Tenant.open_loop ~rate_rps:20_000. ())
        ();
    ]
  in
  let fleet_cfg = Cluster.config ~seed:3 ~devices:2 ~tenants () in
  let fleet =
    Sc.make ~name:"health-fleet" ~seed:3
      ~backend:(Sc.Fleet { fl_cfg = fleet_cfg; fl_plan = None })
      [
        Sc.Act (Sc.Checkpoint "boot");
        Sc.Assert
          {
            a_cond = Sc.Health_is (0, Cluster.Health.Healthy);
            a_msg = "slot 0 is not healthy";
          };
        Sc.Assert
          {
            a_cond = Sc.Not (Sc.Health_is (9, Cluster.Health.Dead));
            a_msg = "slot 9 is dead";
          };
      ]
  in
  let res = Sc.run fleet in
  (match res.Sc.res_failures with
  | [ f ] -> check_bool "the failure names slot 9" true (contains f "dev9")
  | fs -> Alcotest.failf "fleet: expected 1 failure, got %d" (List.length fs));
  check_string "the node label names the state"
    "assert:not health(dev9) is dead"
    (List.nth res.Sc.res_entries 2).Sc.en_node;
  let cfg = small_cfg ~seed:3 () in
  let single_sc =
    Sc.make ~name:"health-single" ~seed:3 ~backend:(single ~seed:3 cfg)
      [
        phase "p" cfg.S.c_duration_ps;
        Sc.Assert
          {
            a_cond = Sc.Health_is (0, Cluster.Health.Dead);
            a_msg = "slot 0 is not dead";
          };
      ]
  in
  match (Sc.run single_sc).Sc.res_failures with
  | [ f ] -> check_bool "the failure names slot 0" true (contains f "dev0")
  | fs -> Alcotest.failf "single: expected 1 failure, got %d" (List.length fs)

(* ---- fleet: kill, restore before quarantine, sleep, serve again ---- *)

let test_fleet_kill_restore_sleep () =
  let phase_ps = 100_000_000 and sleep_ps = 50_000_000 in
  let tenants =
    List.map
      (fun name ->
        S.Tenant.make ~name ~clients:2
          ~mix:[ S.Mix.memcpy ~bytes:4096 () ]
          ~load:(S.Tenant.open_loop ~rate_rps:20_000. ())
          ())
      [ "a"; "b" ]
  in
  let cfg =
    Cluster.config ~seed:3 ~duration_ps:phase_ps ~devices:2 ~tenants ()
  in
  let sc =
    Sc.make ~name:"kill-restore-sleep" ~seed:3
      ~backend:(Sc.Fleet { fl_cfg = cfg; fl_plan = None })
      [
        phase "before" phase_ps;
        Sc.Act (Sc.Kill 0);
        Sc.Act (Sc.Restore 0);
        Sc.Act (Sc.Sleep sleep_ps);
        phase "after" phase_ps;
        Sc.Assert
          {
            a_cond = Sc.Cmp (Sc.Eq, Sc.Counter Sc.Lost_acked, Sc.Const 0.);
            a_msg = "acked commands were lost";
          };
      ]
  in
  let res = Sc.run sc in
  check_bool "scenario ok" true res.Sc.res_ok;
  let sleep = List.nth res.Sc.res_entries 3 in
  check_string "the fourth entry is the sleep" "sleep:50000000"
    sleep.Sc.en_node;
  check_int "the sleep spans exactly its delta" sleep_ps
    (sleep.Sc.en_exit_ps - sleep.Sc.en_enter_ps);
  check_bool "the restore quarantined the slot" true
    (res.Sc.res_obs.Sc.ob_quarantines >= 1)

let () =
  Alcotest.run "scenario"
    [
      ( "executor",
        [
          prop_transcript_deterministic;
          prop_budget_honored;
          Alcotest.test_case "loop trip bound" `Quick test_trip_bound;
          Alcotest.test_case "budget exhaustion fails" `Quick
            test_budget_exhaustion_is_a_failure;
          Alcotest.test_case "conditions see the phase" `Quick
            test_conditions_see_the_phase;
          Alcotest.test_case "chaos requires a fleet" `Quick
            test_chaos_requires_fleet;
          Alcotest.test_case "unresolved names fail the node" `Quick
            test_unresolved_names_fail;
          Alcotest.test_case "a quantile with no samples fails" `Quick
            test_quantile_without_samples_fails;
          Alcotest.test_case "health of a missing slot fails" `Quick
            test_health_of_missing_slot_fails;
        ] );
      ( "fleet-integration",
        [
          Alcotest.test_case "kill, restore, sleep, serve" `Quick
            test_fleet_kill_restore_sleep;
        ] );
      ( "serve-integration",
        [
          prop_single_phase_matches_plain_run;
          prop_constant_curve_is_historical;
          Alcotest.test_case "varying curve diverges" `Quick
            test_varying_curve_changes_arrivals;
          Alcotest.test_case "snapshot non-perturbation" `Quick
            test_snapshot_does_not_perturb;
        ] );
    ]
