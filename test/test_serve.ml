(* Serving layer: weighted-fair shares, conservation accounting, seed
   determinism, the multi-outstanding/batched command path in the
   runtime, fault-paired shedding, and allocator churn. *)

module F = Fault
module H = Runtime.Handle
module D = Platform.Device
module S = Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qcheck ?(count = 30) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- workload description ---- *)

let test_mix_rounding () =
  let k = S.Mix.memcpy ~bytes:100 () in
  check_int "bytes rounded up to 64" 128 k.S.Mix.k_bytes;
  let k = S.Mix.vecadd ~bytes:1 () in
  check_int "minimum one beat" 64 k.S.Mix.k_bytes;
  check_string "label derives from rounded size" "vecadd-64b" k.S.Mix.k_label

let test_policy_names () =
  check_bool "wfq parses" true (S.policy_of_name "wfq" = Some S.Wfq);
  check_bool "fifo parses" true (S.policy_of_name "fifo" = Some S.Fifo);
  check_bool "unknown rejected" true (S.policy_of_name "lifo" = None)

(* ---- weighted-fair shares ---- *)

(* Two fully backlogged closed-loop tenants with equal request sizes:
   the byte share of the heavier tenant must track weight/(weight+1). *)
let prop_wfq_shares =
  qcheck ~count:5 "WFQ byte shares track tenant weights"
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (w, seed) ->
      let tenant name weight =
        S.Tenant.make ~name ~weight ~clients:6
          ~mix:[ S.Mix.memcpy ~bytes:(16 * 1024) () ]
          ~load:(S.Tenant.Closed_loop { think_ps = 0 })
          ()
      in
      let cfg =
        S.config ~seed ~duration_ps:300_000_000 ~n_cores:2 ~core_cap:2
          ~tenants:[ tenant "light" 1.0; tenant "heavy" (float_of_int w) ]
          ()
      in
      let r = S.run cfg () in
      if not (S.conserved r) then false
      else
        match r.S.r_tenants with
        | [ light; heavy ] ->
            let total = light.S.tr_bytes_served + heavy.S.tr_bytes_served in
            let completions = light.S.tr_completed + heavy.S.tr_completed in
            let share =
              float_of_int heavy.S.tr_bytes_served /. float_of_int total
            in
            let expect = float_of_int w /. float_of_int (w + 1) in
            completions >= 50 && Float.abs (share -. expect) < 0.15
        | _ -> false)

(* FIFO ignores weights: with the same backlogged pair the heavy tenant
   gets no preferential share. *)
let test_fifo_ignores_weights () =
  let tenant name weight =
    S.Tenant.make ~name ~weight ~clients:6
      ~mix:[ S.Mix.memcpy ~bytes:(16 * 1024) () ]
      ~load:(S.Tenant.Closed_loop { think_ps = 0 })
      ()
  in
  let cfg =
    S.config ~seed:7 ~duration_ps:300_000_000 ~policy:S.Fifo ~n_cores:2
      ~core_cap:2
      ~tenants:[ tenant "light" 1.0; tenant "heavy" 4.0 ]
      ()
  in
  let r = S.run cfg () in
  check_bool "conserved" true (S.conserved r);
  match r.S.r_tenants with
  | [ light; heavy ] ->
      let share =
        float_of_int heavy.S.tr_bytes_served
        /. float_of_int (light.S.tr_bytes_served + heavy.S.tr_bytes_served)
      in
      check_bool "FIFO share near 1/2 despite 4x weight" true
        (Float.abs (share -. 0.5) < 0.15)
  | _ -> Alcotest.fail "expected two tenants"

(* ---- conservation ---- *)

(* Every offered request is admitted or shed at admission; every admitted
   request completes, is shed at dispatch, or fails — exactly once — and
   the allocator ends where it started. Overload on the open-loop tenant
   makes the shedding paths actually fire. *)
let prop_conservation =
  qcheck ~count:6 "conservation holds under random seeds and policies"
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, wfq) ->
      let open_t =
        S.Tenant.make ~name:"open" ~clients:3 ~queue_cap:8
          ~load:(S.Tenant.open_loop ~rate_rps:600_000. ())
          ()
      in
      let closed_t =
        S.Tenant.make ~name:"closed" ~clients:2
          ~load:(S.Tenant.Closed_loop { think_ps = 5_000_000 })
          ()
      in
      let cfg =
        S.config ~seed
          ~policy:(if wfq then S.Wfq else S.Fifo)
          ~duration_ps:200_000_000 ~n_cores:2
          ~tenants:[ open_t; closed_t ]
          ()
      in
      let r = S.run cfg () in
      S.violations r = [] && List.for_all (fun t -> t.S.tr_completed > 0) r.S.r_tenants)

let test_deadline_shedding () =
  (* A 25 us admission deadline under heavy overload: requests expire at
     the head of the queue and are shed at dispatch, and the accounting
     still balances. *)
  let t =
    S.Tenant.make ~name:"hot" ~clients:4 ~queue_cap:512
      ~deadline_ps:25_000_000
      ~mix:[ S.Mix.memcpy ~bytes:(16 * 1024) () ]
      ~load:(S.Tenant.open_loop ~rate_rps:1_000_000. ())
      ()
  in
  let cfg =
    S.config ~seed:3 ~duration_ps:200_000_000 ~n_cores:2 ~tenants:[ t ] ()
  in
  let r = S.run cfg () in
  check_bool "conserved" true (S.conserved r);
  let tr = List.hd r.S.r_tenants in
  check_bool "deadline shedding fired" true (tr.S.tr_shed_deadline > 0);
  check_bool "still completing work" true (tr.S.tr_completed > 0)

(* ---- determinism ---- *)

let prop_determinism =
  qcheck ~count:4 "same seed, byte-identical digest"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        S.config ~seed ~duration_ps:150_000_000 ~n_cores:2
          ~tenants:
            [
              S.Tenant.make ~name:"a" ~clients:2
                ~load:(S.Tenant.open_loop ~rate_rps:150_000. ())
                ();
              S.Tenant.make ~name:"b" ~clients:2
                ~load:(S.Tenant.Closed_loop { think_ps = 10_000_000 })
                ();
            ]
          ()
      in
      S.digest (S.run cfg ()) = S.digest (S.run cfg ()))

let test_seed_changes_digest () =
  let cfg seed =
    S.config ~seed ~duration_ps:150_000_000 ~n_cores:2
      ~tenants:
        [
          S.Tenant.make ~name:"a" ~clients:2
            ~load:(S.Tenant.open_loop ~rate_rps:150_000. ())
            ();
        ]
      ()
  in
  check_bool "different seeds diverge" true
    (S.digest (S.run (cfg 1) ()) <> S.digest (S.run (cfg 2) ()))

(* ---- the multi-outstanding / batched command path ---- *)

let memcpy_soc ?fault ~n_cores () =
  let design =
    Beethoven.Elaborate.elaborate
      (Beethoven.Config.make ~name:"m" [ Kernels.Memcpy.system ~n_cores ])
      D.aws_f1
  in
  Beethoven.Soc.create ?fault design ~behaviors:(fun _ ->
      Kernels.Memcpy.behavior)

let test_try_collect_and_batch () =
  let h = H.create (memcpy_soc ~n_cores:2 ()) in
  let a = H.malloc h 4096 and b = H.malloc h 4096 in
  let batch = H.begin_batch h ~n:2 in
  let send core =
    H.send ~batch h ~system:"Memcpy" ~core ~cmd:Kernels.Memcpy.command
      ~args:
        [
          ("src", Int64.of_int a.H.rp_addr);
          ("dst", Int64.of_int b.H.rp_addr);
          ("bytes", 4096L);
        ]
  in
  let h1 = send 0 and h2 = send 1 in
  check_bool "pending before the simulation runs" true
    (H.try_collect h1 = H.Pending);
  check_bool "no raw response yet" true (H.response_seen_at h1 = None);
  let settled = ref 0 in
  H.on_settled h1 (fun _ -> incr settled);
  H.on_settled h2 (fun _ -> incr settled);
  Desim.Engine.run (H.engine h);
  check_int "both handles settled exactly once" 2 !settled;
  (match H.try_collect h1 with
  | H.Done v -> check_bool "memcpy response is the byte count" true (v = 4096L)
  | _ -> Alcotest.fail "h1 did not complete");
  (match (H.response_seen_at h2, H.try_collect h2) with
  | Some seen, H.Done _ ->
      check_bool "raw response precedes collection" true
        (seen <= Desim.Engine.now (H.engine h))
  | _ -> Alcotest.fail "h2 did not complete");
  (* registering after settlement fires immediately *)
  let late = ref false in
  H.on_settled h1 (fun _ -> late := true);
  check_bool "late on_settled fires synchronously" true !late;
  H.mfree h a;
  H.mfree h b

let test_multi_outstanding_survives_hang () =
  (* Several commands in flight on ONE core that hangs at its first
     dispatch: the watchdog must recover every one of them through a
     single quarantine and a reroute — the multi-outstanding invariant
     under faults. *)
  let plan = F.Plan.with_hang ~after:1 ~system:0 ~core:0 F.Plan.none in
  let inj = F.Injector.create plan in
  let h = H.create (memcpy_soc ~fault:inj ~n_cores:2 ()) in
  let a = H.malloc h 4096 and b = H.malloc h 4096 in
  let send () =
    H.send h ~system:"Memcpy" ~core:0 ~cmd:Kernels.Memcpy.command
      ~args:
        [
          ("src", Int64.of_int a.H.rp_addr);
          ("dst", Int64.of_int b.H.rp_addr);
          ("bytes", 4096L);
        ]
  in
  let handles = [ send (); send (); send () ] in
  Desim.Engine.run (H.engine h);
  List.iteri
    (fun i rh ->
      match H.try_collect rh with
      | H.Done v -> check_bool (Printf.sprintf "command %d recovered" i) true (v = 4096L)
      | _ -> Alcotest.fail (Printf.sprintf "command %d not recovered" i))
    handles;
  check_int "core quarantined exactly once" 1 (F.Injector.quarantines inj);
  check_int "no pending lost messages" 0 (F.Injector.pending_lost inj);
  H.mfree h a;
  H.mfree h b

(* ---- fault pairing ---- *)

let test_serve_under_core_hang () =
  (* A serving campaign with core 0 of the memcpy system hanging at its
     first dispatch: the dispatcher keeps serving around the quarantine,
     nothing is lost, and the injector ledger resolves completely. *)
  let t =
    S.Tenant.make ~name:"t" ~clients:3
      ~mix:[ S.Mix.memcpy ~bytes:(8 * 1024) () ]
      ~load:(S.Tenant.Closed_loop { think_ps = 5_000_000 })
      ()
  in
  let cfg =
    S.config ~seed:11 ~duration_ps:200_000_000 ~n_cores:2 ~tenants:[ t ] ()
  in
  let plan = F.Plan.with_hang ~after:1 ~system:0 ~core:0 F.Plan.none in
  let r = S.run ~plan cfg () in
  check_bool "conserved under the hang" true (S.conserved r);
  let tr = List.hd r.S.r_tenants in
  check_bool "work still completes" true (tr.S.tr_completed > 0);
  match r.S.r_injector with
  | Some inj ->
      check_int "one quarantine" 1 (F.Injector.quarantines inj);
      check_int "lost-message ledger resolved" 0 (F.Injector.pending_lost inj)
  | None -> Alcotest.fail "injector missing from the report"

(* ---- allocator churn ---- *)

let prop_alloc_churn =
  qcheck ~count:4
    "free_bytes returns to baseline after the campaign drains"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        S.config ~seed ~duration_ps:200_000_000 ~n_cores:2
          ~tenants:
            [
              (* mixed sizes force real free-list churn *)
              S.Tenant.make ~name:"churn" ~clients:4 ~queue_cap:16
                ~load:(S.Tenant.open_loop ~rate_rps:400_000. ())
                ();
            ]
          ()
      in
      let r = S.run cfg () in
      r.S.r_alloc_ok && r.S.r_leaked_blocks = 0 && r.S.r_free_delta = 0)

(* ---- tracing integration ---- *)

let test_serve_traces_queue_wait () =
  let tracer = Trace.create () in
  let cfg =
    S.config ~seed:5 ~duration_ps:150_000_000 ~n_cores:2
      ~tenants:
        [
          S.Tenant.make ~name:"tr" ~clients:2
            ~load:(S.Tenant.open_loop ~rate_rps:200_000. ())
            ();
        ]
      ()
  in
  let r = S.run ~tracer cfg () in
  check_bool "conserved" true (S.conserved r);
  (match Trace.check tracer with
  | [] -> ()
  | problems ->
      Alcotest.fail ("trace not well-formed: " ^ String.concat "; " problems));
  let tr = List.hd r.S.r_tenants in
  check_int "admission counter matches the report" tr.S.tr_admitted
    (Trace.counter_value tracer "serve.admitted");
  check_int "completion counter matches the report" tr.S.tr_completed
    (Trace.counter_value tracer "serve.completed");
  check_bool "batched commands counted on the server" true
    (Trace.counter_value tracer "server.batched_cmds" >= tr.S.tr_completed)

(* ---- saturation sweep ---- *)

let test_saturation_monotone_offered () =
  let points =
    S.saturation ~seed:42 ~bytes:(16 * 1024) ~clients:4
      ~duration_ps:150_000_000
      ~rates_rps:[ 50_000.; 200_000.; 800_000. ]
      ()
  in
  check_int "one point per rate" 3 (List.length points);
  let offered = List.map (fun p -> p.S.sat_offered_rps) points in
  check_bool "offered load increases along the sweep" true
    (List.sort compare offered = offered);
  List.iter
    (fun p -> check_bool "everyone completes work" true (p.S.sat_completed > 0))
    points

let () =
  Alcotest.run "serve"
    [
      ( "workload",
        [
          Alcotest.test_case "mix rounding" `Quick test_mix_rounding;
          Alcotest.test_case "policy names" `Quick test_policy_names;
        ] );
      ( "fairness",
        [
          prop_wfq_shares;
          Alcotest.test_case "fifo ignores weights" `Quick
            test_fifo_ignores_weights;
        ] );
      ( "conservation",
        [
          prop_conservation;
          Alcotest.test_case "deadline shedding" `Quick test_deadline_shedding;
        ] );
      ( "determinism",
        [
          prop_determinism;
          Alcotest.test_case "seed changes digest" `Quick
            test_seed_changes_digest;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "try_collect and batching" `Quick
            test_try_collect_and_batch;
          Alcotest.test_case "multi-outstanding survives a hang" `Quick
            test_multi_outstanding_survives_hang;
        ] );
      ( "faults",
        [
          Alcotest.test_case "serving around a quarantine" `Quick
            test_serve_under_core_hang;
        ] );
      ("alloc", [ prop_alloc_churn ]);
      ( "trace",
        [
          Alcotest.test_case "queue-wait spans and counters" `Quick
            test_serve_traces_queue_wait;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "offered-load sweep" `Quick
            test_saturation_monotone_offered;
        ] );
    ]
