(* Fault-tolerant multi-device cluster serving: health, quarantine,
   drain/re-shard, failover. *)

let tenants ?(rate = 30_000.) () =
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

let small_cfg ?(seed = 42) ?(devices = 2) ?warm ?rate () =
  Cluster.config ~seed ~duration_ps:600_000_000 ~devices ?warm
    ~tenants:(tenants ?rate ()) ()

(* ---------------- basic serving across a fleet --------------------- *)

let test_basic () =
  let r = Cluster.run (small_cfg ()) () in
  Alcotest.(check (list string)) "conserves" [] (Cluster.violations r);
  let total =
    List.fold_left (fun a t -> a + t.Serve.tr_completed) 0 r.Cluster.c_tenants
  in
  Alcotest.(check bool) "completed some work" true (total > 30);
  Alcotest.(check int) "no quarantines" 0 r.Cluster.c_quarantines;
  Alcotest.(check int) "no duplicates" 0 r.Cluster.c_duplicates;
  (* locality: both tenants placed, spread over both devices *)
  List.iter
    (fun (_, slot) -> Alcotest.(check bool) "placed" true (slot >= 0))
    r.Cluster.c_placements;
  let homes = List.map snd r.Cluster.c_placements in
  Alcotest.(check bool) "spread over devices" true
    (List.sort_uniq compare homes = [ 0; 1 ])

let test_device_report () =
  let r = Cluster.run (small_cfg ()) () in
  Alcotest.(check int) "two devices" 2 (List.length r.Cluster.c_devices);
  List.iter
    (fun d ->
      Alcotest.(check bool) "served" true (d.Cluster.dr_dispatched > 0);
      Alcotest.(check bool) "utilized" true (d.Cluster.dr_utilization > 0.);
      Alcotest.(check bool) "healthy at end" true
        (d.Cluster.dr_state = Cluster.Health.Healthy))
    r.Cluster.c_devices

(* ---------------- determinism -------------------------------------- *)

let test_determinism () =
  List.iter
    (fun devices ->
      let digest () =
        Cluster.digest (Cluster.run (small_cfg ~devices ()) ())
      in
      let a = digest () and b = digest () in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical for %d devices" devices)
        a b)
    [ 1; 2; 4 ]

let test_seed_changes_digest () =
  let d seed = Cluster.digest (Cluster.run (small_cfg ~seed ()) ()) in
  Alcotest.(check bool) "seed changes digest" false (d 1 = d 2)

(* ---------------- chaos: kill, drain, re-shard, restore ------------ *)

let test_kill_reshard_restore () =
  let cfg = small_cfg ~devices:4 () in
  (* the 50 us monitor misses dev0 from 150 us on, quarantines it at the
     fourth miss (300 us) and its drain ends at 450 us, so the restore
     finds it dead *)
  let chaos =
    [
      Cluster.Kill { at = 150_000_000; dev = 0 };
      Cluster.Restore { at = 500_000_000; dev = 0 };
    ]
  in
  let r = Cluster.run ~chaos cfg () in
  Alcotest.(check (list string)) "conserves under chaos" []
    (Cluster.violations r);
  Alcotest.(check int) "zero lost acked" 0 r.Cluster.c_lost_acked;
  Alcotest.(check bool) "device quarantined" true (r.Cluster.c_quarantines >= 1);
  (* every tenant that lived on dev0 moved to a survivor *)
  List.iter
    (fun (_, slot) -> Alcotest.(check bool) "re-homed" true (slot <> 0 || slot < 0))
    r.Cluster.c_placements;
  let d0 = List.hd r.Cluster.c_devices in
  Alcotest.(check bool) "dev0 rebooted" true (d0.Cluster.dr_generations >= 2);
  let dead_seen =
    List.exists
      (fun (_, s) -> s = Cluster.Health.Dead)
      d0.Cluster.dr_transitions
  in
  Alcotest.(check bool) "dev0 went dead" true dead_seen

(* The session tracer observes the fleet without steering it: a traced
   run through a kill and a restore settles exactly as the untraced one,
   and its trace is well formed. *)
let test_traced_chaos () =
  let cfg = small_cfg ~devices:4 () in
  let chaos =
    [
      Cluster.Kill { at = 150_000_000; dev = 0 };
      Cluster.Restore { at = 500_000_000; dev = 0 };
    ]
  in
  let tracer = Trace.create () in
  let plain = Cluster.run ~chaos cfg () in
  let traced = Cluster.run ~tracer ~chaos cfg () in
  Alcotest.(check string) "tracing leaves the run unchanged"
    (Cluster.digest plain) (Cluster.digest traced);
  Alcotest.(check (list string)) "trace is well formed" []
    (Trace.check tracer);
  Alcotest.(check int) "the kill is counted" 1
    (Trace.counter_value tracer "cluster.kill")

let test_kill_strands_inflight () =
  (* a kill under load catches commands in flight on the device: its
     lane halts, so none of them completes there, and the drain replays
     them on the survivor *)
  let cfg = small_cfg ~devices:2 ~rate:120_000. () in
  let chaos = [ Cluster.Kill { at = 150_000_000; dev = 0 } ] in
  let r = Cluster.run ~chaos cfg () in
  Alcotest.(check (list string)) "conserves" [] (Cluster.violations r);
  let d0 = List.hd r.Cluster.c_devices in
  Alcotest.(check bool) "commands stranded on the killed device" true
    (d0.Cluster.dr_completed < d0.Cluster.dr_dispatched);
  Alcotest.(check bool) "stranded commands replayed" true
    (r.Cluster.c_replays > 0)

let test_kill_all_degrades () =
  let cfg = small_cfg ~devices:2 () in
  let chaos =
    [
      Cluster.Kill { at = 100_000_000; dev = 0 };
      Cluster.Kill { at = 100_000_000; dev = 1 };
    ]
  in
  let r = Cluster.run ~chaos cfg () in
  Alcotest.(check (list string)) "still conserves" [] (Cluster.violations r);
  Alcotest.(check bool) "degradation shed load" true
    (List.fold_left
       (fun a t -> a + t.Serve.tr_shed_degraded)
       0 r.Cluster.c_tenants
    > 0)

let test_warm_pool_promotion () =
  (* 3 slots, 2 warm; killing one pulls the standby in (stranded or SLO) *)
  let cfg = small_cfg ~devices:3 ~warm:2 () in
  let chaos = [ Cluster.Kill { at = 150_000_000; dev = 0 } ] in
  let r = Cluster.run ~chaos cfg () in
  Alcotest.(check (list string)) "conserves" [] (Cluster.violations r);
  Alcotest.(check int) "zero lost acked" 0 r.Cluster.c_lost_acked;
  Alcotest.(check bool) "no tenant left degraded at end" true
    (List.for_all (fun (_, s) -> s >= 0) r.Cluster.c_placements)

(* A restore that lands before the monitor quarantined the killed slot
   must quarantine it first: its tenants re-home (or degrade) instead of
   staying homed on a standby slot that never dispatches. *)
let memcpy_tenants () =
  List.map
    (fun name ->
      Serve.Tenant.make ~name ~clients:2
        ~mix:[ Serve.Mix.memcpy ~bytes:4096 () ]
        ~load:(Serve.Tenant.open_loop ~rate_rps:20_000. ())
        ())
    [ "a"; "b" ]

let check_settled what r =
  Alcotest.(check (list string)) (what ^ ": conserves") []
    (Cluster.violations r);
  Alcotest.(check int) (what ^ ": zero lost acked") 0 r.Cluster.c_lost_acked;
  Alcotest.(check bool) (what ^ ": quarantined") true
    (r.Cluster.c_quarantines >= 1)

let test_restore_before_quarantine () =
  let cfg =
    Cluster.config ~seed:3 ~devices:3 ~warm:2 ~tenants:(memcpy_tenants ()) ()
  in
  let chaos =
    [
      Cluster.Kill { at = 150_000_000; dev = 0 };
      Cluster.Restore { at = 170_000_000; dev = 0 };
    ]
  in
  let r = Cluster.run ~chaos cfg () in
  check_settled "run" r;
  Alcotest.(check bool) "dev0 is not a tenant's home" true
    (List.for_all (fun (_, slot) -> slot <> 0) r.Cluster.c_placements)

let test_session_kill_then_restore () =
  let cfg =
    Cluster.config ~seed:3 ~duration_ps:200_000_000 ~devices:2
      ~tenants:(memcpy_tenants ()) ()
  in
  let s = Cluster.Session.create cfg () in
  ignore (Cluster.Session.run_phase s ~duration_ps:200_000_000);
  Cluster.Session.kill s ~dev:0;
  Cluster.Session.restore s ~dev:0;
  Cluster.Session.run_phase s ~duration_ps:200_000_000
  |> check_settled "session"

let test_negative_chaos_time () =
  Alcotest.check_raises "negative chaos time"
    (Invalid_argument "Cluster.run: negative chaos time") (fun () ->
      ignore
        (Cluster.run
           ~chaos:[ Cluster.Kill { at = -1; dev = 0 } ]
           (small_cfg ()) ()))

(* ---------------- differential oracle: one device vs serve --------- *)

(* A chaos-free one-device cluster and the single-SoC campaign share the
   dispatch core, the seeded client streams and the F1 platform, so with
   one unsaturated open-loop tenant every ledger count must agree.
   Latencies are excluded on purpose: the cluster sends each command
   without a batch, so every command beat pays its own runtime-server
   operation (3 server ops per command instead of 2), which puts its
   service p50 about 1.5 us above serve's batch of one. *)
let test_one_device_matches_serve () =
  let seed = 5 and duration_ps = 300_000_000 in
  let tenant =
    Serve.Tenant.make ~name:"solo" ~clients:2
      ~mix:[ Serve.Mix.memcpy ~bytes:4096 () ]
      ~load:(Serve.Tenant.open_loop ~rate_rps:20_000. ())
      ()
  in
  let served =
    Serve.run
      (Serve.config ~seed ~duration_ps ~batch_max:1 ~n_cores:2
         ~tenants:[ tenant ] ())
      ()
  in
  let clustered =
    Cluster.run
      (Cluster.config ~seed ~duration_ps ~devices:1 ~tenants:[ tenant ] ())
      ()
  in
  let counts (t : Serve.tenant_report) =
    [
      t.tr_offered; t.tr_admitted; t.tr_shed_queue; t.tr_shed_deadline;
      t.tr_shed_degraded; t.tr_completed; t.tr_failed; t.tr_bytes_served;
    ]
  in
  let serve_counts = List.map counts served.Serve.r_tenants in
  Alcotest.(check (list (list int)))
    "offered/admitted/shed/completed/failed/bytes agree" serve_counts
    (List.map counts clustered.Cluster.c_tenants);
  Alcotest.(check bool) "requests completed" true
    (List.for_all (fun t -> t.Serve.tr_completed > 0) served.Serve.r_tenants)

(* ---------------- qcheck properties -------------------------------- *)

let prop_no_lost_acked =
  QCheck.Test.make ~name:"drain+re-shard loses no acked, duplicates none"
    ~count:8
    QCheck.(
      pair (int_range 1 1000)
        (list_of_size Gen.(int_range 1 3)
           (pair (int_range 0 3) (int_range 50 450))))
    (fun (seed, kills) ->
      let cfg = small_cfg ~seed ~devices:4 () in
      let chaos =
        List.map
          (fun (dev, at_ms) -> Cluster.Kill { at = at_ms * 1_000_000; dev })
          kills
      in
      let r = Cluster.run ~chaos cfg () in
      Cluster.violations r = [] && r.Cluster.c_lost_acked = 0)

(* Kill/restore pairs; the first restore lands less than one quarantine
   window (4 heartbeats = 200 us) after its kill, on a slot that homes a
   tenant at boot. *)
let prop_no_lost_acked_restore =
  QCheck.Test.make ~name:"kill+restore schedules lose no acked, duplicate none"
    ~count:8
    QCheck.(
      triple (int_range 1 1000)
        (triple (int_range 0 1) (int_range 50 450) (int_range 5 95))
        (list_of_size Gen.(int_range 0 2)
           (triple (int_range 0 3) (int_range 50 450) (int_range 5 300))))
    (fun (seed, early, others) ->
      let chaos =
        List.concat_map
          (fun (dev, at_us, gap_us) ->
            [
              Cluster.Kill { at = at_us * 1_000_000; dev };
              Cluster.Restore { at = (at_us + gap_us) * 1_000_000; dev };
            ])
          (early :: others)
      in
      let r = Cluster.run ~chaos (small_cfg ~seed ~devices:4 ()) () in
      Cluster.violations r = [] && r.Cluster.c_lost_acked = 0)

let prop_deterministic =
  QCheck.Test.make ~name:"same seed, byte-identical report (1/2/4 devices)"
    ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun devices ->
          let go () =
            let cfg =
              Cluster.config ~seed ~duration_ps:300_000_000 ~devices
                ~tenants:(tenants ~rate:20_000. ()) ()
            in
            Cluster.digest (Cluster.run cfg ())
          in
          go () = go ())
        [ 1; 2; 4 ])

(* ---------------- device-loss degradation curve -------------------- *)

let test_loss_curve () =
  let pts =
    Cluster.device_loss_curve ~seed:7 ~duration_ps:400_000_000
      ~rate_rps:40_000. ~devices:2 ()
  in
  Alcotest.(check int) "two points" 2 (List.length pts);
  let full = List.hd pts and degraded = List.nth pts 1 in
  Alcotest.(check bool) "losing a device cannot help throughput" true
    (degraded.Cluster.lp_achieved_rps <= full.Cluster.lp_achieved_rps *. 1.05);
  Alcotest.(check bool) "renders" true
    (String.length (Cluster.render_loss_curve pts) > 0)

(* ---------------- report rendering --------------------------------- *)

let test_render () =
  let chaos = [ Cluster.Kill { at = 150_000_000; dev = 1 } ] in
  let r = Cluster.run ~chaos (small_cfg ~devices:2 ()) () in
  let s = Cluster.render r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" needle) true
        (contains s needle))
    [ "cluster campaign"; "shed breakdown"; "dev0"; "dev1" ]

let () =
  Alcotest.run "cluster"
    [
      ( "serving",
        [
          Alcotest.test_case "two-device fleet serves and conserves" `Quick
            test_basic;
          Alcotest.test_case "device reports" `Quick test_device_report;
          Alcotest.test_case "one device agrees with serve" `Quick
            test_one_device_matches_serve;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical digests (1/2/4 devices)" `Quick
            test_determinism;
          Alcotest.test_case "seed changes digest" `Quick
            test_seed_changes_digest;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill -> drain -> re-shard -> restore" `Quick
            test_kill_reshard_restore;
          Alcotest.test_case "killing every device degrades gracefully" `Quick
            test_kill_all_degrades;
          Alcotest.test_case "warm-pool promotion absorbs a loss" `Quick
            test_warm_pool_promotion;
          Alcotest.test_case "restore before quarantine re-homes" `Quick
            test_restore_before_quarantine;
          Alcotest.test_case "session kill then restore re-homes" `Quick
            test_session_kill_then_restore;
          Alcotest.test_case "negative chaos time rejected" `Quick
            test_negative_chaos_time;
          Alcotest.test_case "a kill strands in-flight commands" `Quick
            test_kill_strands_inflight;
          Alcotest.test_case "tracing leaves a chaos run unchanged" `Quick
            test_traced_chaos;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_no_lost_acked;
          QCheck_alcotest.to_alcotest prop_no_lost_acked_restore;
          QCheck_alcotest.to_alcotest prop_deterministic;
        ] );
      ( "degradation",
        [ Alcotest.test_case "device-loss curve" `Quick test_loss_curve ] );
      ( "render", [ Alcotest.test_case "report renders" `Quick test_render ] );
    ]
