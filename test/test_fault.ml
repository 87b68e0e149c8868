(* Fault-injection subsystem: ECC correctness, campaign determinism,
   bounded-retry give-up, quarantine + rerouting, and the freed-memory
   safety rails in the runtime. *)

module F = Fault
module H = Runtime.Handle
module A = Runtime.Alloc
module D = Platform.Device

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qcheck ?(count = 30) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- SECDED ECC ---- *)

let prop_ecc_roundtrip =
  qcheck ~count:200 "clean codewords decode Ok" QCheck.int64 (fun w ->
      F.Ecc.decode ~data:w ~check:(F.Ecc.encode w) = F.Ecc.Ok)

let prop_ecc_single_bit =
  qcheck ~count:100 "every single data-bit flip is corrected" QCheck.int64
    (fun w ->
      let check = F.Ecc.encode w in
      let ok = ref true in
      for bit = 0 to 63 do
        let corrupted = Int64.logxor w (Int64.shift_left 1L bit) in
        (match F.Ecc.decode ~data:corrupted ~check with
        | F.Ecc.Corrected repaired -> if repaired <> w then ok := false
        | _ -> ok := false)
      done;
      !ok)

let prop_ecc_double_bit =
  qcheck ~count:100 "every double data-bit flip is flagged uncorrectable"
    QCheck.(triple int64 (int_bound 63) (int_bound 62))
    (fun (w, b1, db) ->
      let b2 = (b1 + 1 + db) mod 64 in
      QCheck.assume (b1 <> b2);
      let corrupted =
        Int64.logxor
          (Int64.logxor w (Int64.shift_left 1L b1))
          (Int64.shift_left 1L b2)
      in
      F.Ecc.decode ~data:corrupted ~check:(F.Ecc.encode w) = F.Ecc.Uncorrectable)

let test_ecc_scrub_repairs_memory () =
  let ecc = F.Ecc.create () in
  let mem = Bytes.create 64 in
  for i = 0 to 7 do
    Bytes.set_int64_le mem (i * 8) (Int64.of_int ((i * 2654435761) lor 1))
  done;
  let orig = Bytes.copy mem in
  F.Ecc.inject_flip ecc ~mem ~word_addr:16 ~bit:5;
  check_bool "memory corrupted" true (not (Bytes.equal mem orig));
  let corrected, uncorrectable = F.Ecc.scrub ecc ~mem ~addr:0 ~bytes:64 in
  check_int "one word repaired" 1 corrected;
  check_int "no uncorrectable" 0 uncorrectable;
  check_bool "memory restored in place" true (Bytes.equal mem orig);
  (* a second scrub finds nothing: the latch was consumed by the repair *)
  let c2, u2 = F.Ecc.scrub ecc ~mem ~addr:0 ~bytes:64 in
  check_int "idempotent" 0 (c2 + u2)

let test_ecc_double_flip_detected () =
  let ecc = F.Ecc.create () in
  let mem = Bytes.create 32 in
  Bytes.set_int64_le mem 8 0x1234_5678_9abc_def0L;
  F.Ecc.inject_flip ecc ~mem ~word_addr:8 ~bit:3;
  F.Ecc.inject_flip ecc ~mem ~word_addr:8 ~bit:40;
  let corrected, uncorrectable = F.Ecc.scrub ecc ~mem ~addr:0 ~bytes:32 in
  check_int "nothing correctable" 0 corrected;
  check_int "flagged uncorrectable" 1 uncorrectable;
  check_bool "corruption stands" true
    (Bytes.get_int64_le mem 8 <> 0x1234_5678_9abc_def0L);
  check_int "running total" 1 (F.Ecc.uncorrectable ecc)

let test_ecc_write_clears_latch () =
  let ecc = F.Ecc.create () in
  let mem = Bytes.create 16 in
  Bytes.set_int64_le mem 0 99L;
  F.Ecc.inject_flip ecc ~mem ~word_addr:0 ~bit:0;
  (* fresh data lands over the corrupted word: the latched codeword is
     stale and must not "repair" the new contents *)
  Bytes.set_int64_le mem 0 77L;
  F.Ecc.note_write ecc ~addr:0 ~bytes:8;
  let corrected, uncorrectable = F.Ecc.scrub ecc ~mem ~addr:0 ~bytes:16 in
  check_int "nothing to scrub" 0 (corrected + uncorrectable);
  check_string "fresh data intact" "77"
    (Int64.to_string (Bytes.get_int64_le mem 0))

(* ---- campaign determinism ---- *)

let small_campaign ~plan =
  Kernels.Campaign.run ~plan ~bytes:8192 ~iters:1 ~n_cores:2
    ~platform:D.aws_f1 ()

let prop_campaign_deterministic =
  qcheck ~count:5 "same seed => identical fault log and counters"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let plan = F.Plan.default_recoverable ~seed () in
      let a = small_campaign ~plan and b = small_campaign ~plan in
      a.Kernels.Campaign.counters = b.Kernels.Campaign.counters
      && F.Log.render a.Kernels.Campaign.log
         = F.Log.render b.Kernels.Campaign.log
      && a.Kernels.Campaign.wall_ps = b.Kernels.Campaign.wall_ps)

let test_campaign_seeds_differ () =
  (* not a hard guarantee per-seed, but across a scaled-up mix two seeds
     producing bit-identical logs would mean the seed is ignored *)
  let mix seed =
    F.Plan.scale 2.0 (F.Plan.default_recoverable ~seed ())
  in
  let a = small_campaign ~plan:(mix 1) and b = small_campaign ~plan:(mix 2) in
  check_bool "different seeds diverge" true
    (F.Log.render a.Kernels.Campaign.log
    <> F.Log.render b.Kernels.Campaign.log)

let test_default_mix_fully_recovered () =
  let r =
    Kernels.Campaign.run
      ~plan:(F.Plan.default_recoverable ~seed:11 ())
      ~bytes:32768 ~iters:2 ~n_cores:2 ~platform:D.aws_f1 ()
  in
  check_bool "campaign clean" true (Kernels.Campaign.clean r);
  check_bool "faults actually fired" true (r.Kernels.Campaign.injected > 0);
  check_int "accounting closes" r.Kernels.Campaign.injected
    (r.Kernels.Campaign.recovered + r.Kernels.Campaign.unrecovered)

(* ---- bounded retry gives up cleanly ---- *)

let only cls rate seed =
  { F.Plan.none with F.Plan.seed; rates = [ (cls, rate) ] }

let test_axi_retry_exhaustion_terminates () =
  (* every AXI read burst errors on every attempt: retries must exhaust
     and the stream force-complete rather than wedge the simulation *)
  let r = small_campaign ~plan:(only F.Class.Axi_read_error 1.0 3) in
  check_bool "gave up on something" true (r.Kernels.Campaign.unrecovered > 0);
  check_int "accounting closes" r.Kernels.Campaign.injected
    (r.Kernels.Campaign.recovered + r.Kernels.Campaign.unrecovered);
  check_int "nothing left pending" 0 r.Kernels.Campaign.pending

(* A serving campaign over memcpy (Reader.stream + Writer transaction
   bursts) and merge sort (Reader.bulk + Writer.bulk), so AXI errors
   reach all four burst paths. *)
let serve_axi_campaign ~plan =
  let tenant =
    Serve.Tenant.make ~name:"t" ~clients:2
      ~mix:[ Serve.Mix.memcpy ~bytes:(16 * 1024) (); Serve.Mix.sort () ]
      ~load:(Serve.Tenant.Closed_loop { think_ps = 5_000_000 })
      ()
  in
  let cfg =
    Serve.config ~seed:5 ~duration_ps:150_000_000 ~n_cores:2
      ~tenants:[ tenant ] ()
  in
  let r = Serve.run ~plan cfg () in
  match r.Serve.r_injector with
  | Some inj -> (r, inj)
  | None -> Alcotest.fail "injector missing from the report"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_axi_errors_every_burst_path () =
  List.iter
    (fun (cls, sites) ->
      List.iter
        (fun rate ->
          let what = Printf.sprintf "%s @%.2f" (F.Class.name cls) rate in
          let r, inj = serve_axi_campaign ~plan:(only cls rate 3) in
          check_bool (what ^ ": every admitted request settles") true
            (Serve.conserved r);
          check_bool (what ^ ": faults fired") true
            (F.Injector.injected inj cls > 0);
          check_int (what ^ ": injected = recovered + unrecovered")
            (F.Injector.injected inj cls)
            (F.Injector.recovered inj cls + F.Injector.unrecovered inj cls);
          check_int (what ^ ": nothing pending") 0 (F.Injector.pending_lost inj);
          if rate = 1.0 then begin
            (* every burst errors on every attempt: each path shows up in
               the log as an exhausted retry budget *)
            let log = F.Log.render (F.Injector.entries inj) in
            List.iter
              (fun site ->
                check_bool (what ^ ": reaches " ^ site) true
                  (contains log site))
              sites;
            check_int (what ^ ": nothing recovers") 0
              (F.Injector.recovered inj cls)
          end
          else
            check_bool (what ^ ": retries recover") true
              (F.Injector.recovered inj cls > 0))
        [ 1.0; 0.2 ])
    [
      (F.Class.Axi_read_error, [ " rd seg@"; " rd-bulk seg@" ]);
      (F.Class.Axi_write_error, [ " wr burst@"; " wr-bulk seg@" ]);
    ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_axi_fault_log_golden () =
  (* the retry paths' timing and log text are pinned to a checked-in
     copy: read and write errors together, at a rate where most bursts
     recover and a few exhaust the budget *)
  let plan =
    {
      F.Plan.none with
      F.Plan.seed = 7;
      rates = [ (F.Class.Axi_read_error, 0.5); (F.Class.Axi_write_error, 0.5) ];
    }
  in
  let _, inj = serve_axi_campaign ~plan in
  check_string "fault log matches golden/serve-axi-faults.txt"
    (read_file "golden/serve-axi-faults.txt")
    (F.Log.render (F.Injector.entries inj))

let test_dma_failure_surfaces_as_corruption () =
  let r = small_campaign ~plan:(only F.Class.Dma_fail 1.0 4) in
  check_bool "dma gave up" true (r.Kernels.Campaign.unrecovered > 0);
  check_bool "corruption detected by verification" true
    (not r.Kernels.Campaign.data_ok)

let test_double_flips_are_unrecovered () =
  let r = small_campaign ~plan:(only F.Class.Dram_double_flip 0.25 5) in
  check_bool "uncorrectable errors seen" true
    (r.Kernels.Campaign.ecc_uncorrectable > 0);
  check_bool "campaign not clean" true (not (Kernels.Campaign.clean r))

(* ---- quarantine and rerouting ---- *)

let test_hang_quarantine_reroute () =
  let plan =
    F.Plan.with_hang ~after:1 ~system:0 ~core:0 F.Plan.none
  in
  let r =
    Kernels.Campaign.run ~plan ~bytes:8192 ~iters:3 ~n_cores:2
      ~platform:D.aws_f1 ()
  in
  check_int "one quarantine" 1 r.Kernels.Campaign.quarantines;
  check_bool "watchdog fired" true (r.Kernels.Campaign.command_timeouts > 0);
  check_bool "rerouted commands all completed" true
    (r.Kernels.Campaign.failed_commands = 0);
  check_bool "hang itself accounted recovered" true
    (Kernels.Campaign.clean r)

let test_hang_single_core_fails_cleanly () =
  (* nowhere to reroute: awaits must raise (caught by the campaign), the
     simulation must still drain — never hang *)
  let plan = F.Plan.with_hang ~after:1 ~system:0 ~core:0 F.Plan.none in
  let r =
    Kernels.Campaign.run ~plan ~bytes:8192 ~iters:2 ~n_cores:1
      ~platform:D.aws_f1 ()
  in
  check_int "one quarantine" 1 r.Kernels.Campaign.quarantines;
  check_bool "commands failed" true (r.Kernels.Campaign.failed_commands > 0);
  check_bool "loss recorded" true (r.Kernels.Campaign.unrecovered > 0);
  check_int "nothing pending either way" 0 r.Kernels.Campaign.pending

let test_quarantine_visible_on_handle () =
  let inj =
    F.Injector.create (F.Plan.with_hang ~after:1 ~system:0 ~core:0 F.Plan.none)
  in
  let design =
    Beethoven.Elaborate.elaborate (Kernels.Campaign.config ~n_cores:2) D.aws_f1
  in
  let soc =
    Beethoven.Soc.create ~fault:inj design ~behaviors:(fun _ ->
        Kernels.Memcpy.behavior)
  in
  let h = H.create soc in
  let src = H.malloc h 4096 and dst = H.malloc h 4096 in
  let rh =
    H.send h ~system:"Memcpy" ~core:0 ~cmd:Kernels.Memcpy.command
      ~args:
        [
          ("src", Int64.of_int src.H.rp_addr);
          ("dst", Int64.of_int dst.H.rp_addr);
          ("bytes", 4096L);
        ]
  in
  let v = H.await h rh in
  check_string "rerouted command responded" "4096" (Int64.to_string v);
  check_bool "core 0 quarantined" true
    (H.is_quarantined h ~system_id:0 ~core_id:0);
  check_bool "core 1 healthy" true
    (not (H.is_quarantined h ~system_id:0 ~core_id:1));
  check_bool "hang latched on the SoC" true
    (Beethoven.Soc.core_hung soc ~system_id:0 ~core_id:0);
  check_int "exactly one quarantine logged" 1 (F.Injector.quarantines inj)

(* ---- freed-memory safety rails ---- *)

let fresh_handle () =
  let design =
    Beethoven.Elaborate.elaborate (Kernels.Campaign.config ~n_cores:1) D.aws_f1
  in
  Beethoven.Soc.create design ~behaviors:(fun _ -> Kernels.Memcpy.behavior)

let test_never_allocated_free () =
  let a = A.create ~size:(1 lsl 16) () in
  Alcotest.check_raises "free of a foreign address"
    (A.Invalid_free { addr = 4096; reason = A.Never_allocated }) (fun () ->
      A.free a 4096)

let test_poison_freed () =
  let h = H.create ~poison_freed:true (fresh_handle ()) in
  let p = H.malloc h 64 in
  let buf = H.host_bytes h p in
  Bytes.fill buf 0 64 'A';
  H.mfree h p;
  (* the stale Bytes.t must read as poison, not as the old contents *)
  check_int "poisoned" 0xde (Char.code (Bytes.get buf 0));
  check_int "poisoned to the end" 0xde (Char.code (Bytes.get buf 63))

let test_stale_pointer_after_reuse () =
  let h = H.create (fresh_handle ()) in
  let p1 = H.malloc h 4096 in
  H.mfree h p1;
  let p2 = H.malloc h 4096 in
  check_int "base recycled" p1.H.rp_addr p2.H.rp_addr;
  Alcotest.check_raises "old pointer is stale"
    (H.Stale_pointer { addr = p1.H.rp_addr; bytes = p1.H.rp_bytes }) (fun () ->
      ignore (H.host_bytes h p1));
  (* the fresh pointer still works *)
  check_int "new pointer live" 4096 (Bytes.length (H.host_bytes h p2))

(* ---- injector accounting ---- *)

let test_injector_lost_accounting () =
  let inj = F.Injector.create (F.Plan.default_recoverable ~seed:1 ()) in
  F.Injector.note_lost inj ~now:10 ~cls:F.Class.Noc_cmd_drop ~key:7
    ~site:"test";
  F.Injector.note_lost inj ~now:20 ~cls:F.Class.Noc_resp_drop ~key:7
    ~site:"test";
  check_int "two pending" 2 (F.Injector.pending_lost inj);
  F.Injector.resolve_lost inj ~now:30 ~key:7 ~recovered:true;
  check_int "none pending" 0 (F.Injector.pending_lost inj);
  check_int "both recovered" 2 (F.Injector.total_recovered inj);
  (* resolving an empty key is a no-op, not a double count *)
  F.Injector.resolve_lost inj ~now:40 ~key:7 ~recovered:false;
  check_int "still two" 2 (F.Injector.total_recovered inj);
  check_int "no losses" 0 (F.Injector.total_unrecovered inj)

(* ---- per-scope fork (device-scoped injectors for the cluster) ---- *)

let decide_sequence inj ~n =
  List.init n (fun _ -> F.Injector.decide inj F.Class.Dram_flip)

let test_fork_deterministic () =
  let plan = F.Plan.scale 10.0 (F.Plan.default_recoverable ~seed:3 ()) in
  let a = F.Injector.fork (F.Injector.create plan) ~scope:5 in
  let b = F.Injector.fork (F.Injector.create plan) ~scope:5 in
  check_bool "same scope, same stream" true
    (decide_sequence a ~n:200 = decide_sequence b ~n:200);
  check_bool "scope recorded" true (F.Injector.scope a = Some 5)

let test_fork_siblings_independent () =
  let plan = F.Plan.scale 10.0 (F.Plan.default_recoverable ~seed:3 ()) in
  let root = F.Injector.create plan in
  let a = F.Injector.fork root ~scope:0
  and b = F.Injector.fork root ~scope:1 in
  check_bool "sibling scopes diverge" true
    (decide_sequence a ~n:400 <> decide_sequence b ~n:400)

let test_fork_leaves_root_stream_untouched () =
  (* regression: the seeded @fault digests predate fork — a root that
     forked children must draw exactly what an unforked root draws *)
  let plan = F.Plan.scale 10.0 (F.Plan.default_recoverable ~seed:7 ()) in
  let pristine = F.Injector.create plan in
  let forked = F.Injector.create plan in
  for s = 0 to 7 do
    ignore (F.Injector.fork forked ~scope:s)
  done;
  check_bool "root stream unchanged by forking" true
    (decide_sequence pristine ~n:300 = decide_sequence forked ~n:300);
  check_bool "root has no scope" true (F.Injector.scope pristine = None)

let test_fork_campaign_digest_unchanged () =
  (* the seeded single-device campaign must render byte-identically
     whether or not sibling device injectors were forked from the same
     plan in between *)
  let plan = F.Plan.default_recoverable ~seed:11 () in
  let a = small_campaign ~plan in
  ignore (F.Injector.fork (F.Injector.create plan) ~scope:1);
  let b = small_campaign ~plan in
  check_string "digest unchanged"
    (F.Log.render a.Kernels.Campaign.log)
    (F.Log.render b.Kernels.Campaign.log)

let () =
  Alcotest.run "fault"
    [
      ( "ecc",
        [
          prop_ecc_roundtrip;
          prop_ecc_single_bit;
          prop_ecc_double_bit;
          Alcotest.test_case "scrub repairs memory" `Quick
            test_ecc_scrub_repairs_memory;
          Alcotest.test_case "double flip detected" `Quick
            test_ecc_double_flip_detected;
          Alcotest.test_case "write clears latch" `Quick
            test_ecc_write_clears_latch;
        ] );
      ( "determinism",
        [
          prop_campaign_deterministic;
          Alcotest.test_case "seeds diverge" `Quick test_campaign_seeds_differ;
          Alcotest.test_case "default mix fully recovered" `Quick
            test_default_mix_fully_recovered;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "axi retry exhaustion terminates" `Quick
            test_axi_retry_exhaustion_terminates;
          Alcotest.test_case "axi errors on every burst path" `Quick
            test_axi_errors_every_burst_path;
          Alcotest.test_case "axi fault log matches golden" `Quick
            test_axi_fault_log_golden;
          Alcotest.test_case "dma failure surfaces as corruption" `Quick
            test_dma_failure_surfaces_as_corruption;
          Alcotest.test_case "double flips unrecovered" `Quick
            test_double_flips_are_unrecovered;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "hang -> quarantine -> reroute" `Quick
            test_hang_quarantine_reroute;
          Alcotest.test_case "single core fails cleanly" `Quick
            test_hang_single_core_fails_cleanly;
          Alcotest.test_case "visible on handle" `Quick
            test_quarantine_visible_on_handle;
        ] );
      ( "memory safety",
        [
          Alcotest.test_case "never-allocated free" `Quick
            test_never_allocated_free;
          Alcotest.test_case "poison freed buffers" `Quick test_poison_freed;
          Alcotest.test_case "stale pointer after reuse" `Quick
            test_stale_pointer_after_reuse;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "lost-message bookkeeping" `Quick
            test_injector_lost_accounting;
        ] );
      ( "fork",
        [
          Alcotest.test_case "same scope, same stream" `Quick
            test_fork_deterministic;
          Alcotest.test_case "sibling scopes independent" `Quick
            test_fork_siblings_independent;
          Alcotest.test_case "forking never draws from the root" `Quick
            test_fork_leaves_root_stream_untouched;
          Alcotest.test_case "campaign digest unchanged" `Quick
            test_fork_campaign_digest_unchanged;
        ] );
    ]
