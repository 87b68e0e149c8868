(* Tests for the discrete-event engine and statistics. *)

module E = Desim.Engine
module S = Desim.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_event_order () =
  let e = E.create () in
  let log = ref [] in
  E.schedule e ~delay:5 (fun () -> log := 5 :: !log);
  E.schedule e ~delay:1 (fun () -> log := 1 :: !log);
  E.schedule e ~delay:3 (fun () -> log := 3 :: !log);
  E.run e;
  Alcotest.(check (list int)) "fires in time order" [ 1; 3; 5 ] (List.rev !log);
  check_int "clock at last event" 5 (E.now e)

let test_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 0 to 9 do
    E.schedule e ~delay:7 (fun () -> log := i :: !log)
  done;
  E.run e;
  Alcotest.(check (list int))
    "same-tick events keep scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_nested_scheduling () =
  let e = E.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      E.schedule e ~delay:2 (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 10;
  E.run e;
  check_int "chain completes" 10 !hits;
  check_int "clock advanced by 2 each" 20 (E.now e)

let test_run_until () =
  let e = E.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    E.schedule e ~delay:(i * 10) (fun () -> incr hits)
  done;
  E.run ~until:45 e;
  check_int "only events <= 45" 4 !hits;
  check_int "clock parked at limit" 45 (E.now e);
  E.run e;
  check_int "rest fire later" 10 !hits

let test_schedule_past_rejected () =
  let e = E.create () in
  E.schedule e ~delay:10 (fun () -> ());
  E.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument
       "Engine.schedule_at: time 5 is in the past (clock is at 10)")
    (fun () -> E.schedule_at e ~time:5 (fun () -> ()))

let test_livelock_guard () =
  let e = E.create () in
  (* a self-rescheduling event never drains: the guard must trip *)
  let rec again () = E.schedule e ~delay:1 again in
  again ();
  (match E.run ~max_events:1000 e with
  | () -> Alcotest.fail "expected Livelock"
  | exception E.Livelock { fired; pending; _ } ->
      check_int "fired the budget" 1000 fired;
      check_bool "work still pending" true (pending > 0));
  (* drain_or_fail converts it into a Failure naming the pending count *)
  let e2 = E.create () in
  let rec again2 () = E.schedule e2 ~delay:1 again2 in
  again2 ();
  (match E.drain_or_fail ~max_events:100 e2 with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "message reports pending events" true
        (contains msg "pending event(s)"))

let test_drain_or_fail_clean () =
  let e = E.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    E.schedule e ~delay:3 (fun () -> incr hits)
  done;
  E.drain_or_fail e;
  check_int "clean drain fires everything" 5 !hits

let test_heap_stress () =
  (* Push events with pseudo-random times, check they fire sorted. *)
  let e = E.create () in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod 10_000
  in
  let fired = ref [] in
  for _ = 1 to 2000 do
    let t = next () in
    E.schedule e ~delay:t (fun () -> fired := t :: !fired)
  done;
  E.run e;
  let fired = List.rev !fired in
  check_int "all fired" 2000 (List.length fired);
  check_bool "sorted" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, 0) fired))

let test_stats () =
  let c = S.counter () in
  S.incr c;
  S.incr ~by:4 c;
  check_int "counter" 5 (S.count c);
  let s = S.series () in
  List.iter (S.observe s) [ 1.0; 2.0; 3.0 ];
  let sum = Option.get (S.summarize_opt s) in
  check_int "n" 3 sum.S.n;
  Alcotest.(check (float 1e-9)) "mean" 2.0 sum.S.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 sum.S.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 sum.S.max;
  let h = S.histogram ~bucket_width:10. in
  List.iter (S.record h) [ 1.; 5.; 11.; 25. ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (0., 2); (10., 1); (20., 1) ]
    (S.buckets h)

let test_summarize_opt () =
  let s = S.series () in
  Alcotest.(check bool) "empty is None" true (S.summarize_opt s = None);
  S.observe s 7.0;
  (match S.summarize_opt s with
  | Some sum ->
      check_int "n" 1 sum.S.n;
      Alcotest.(check (float 1e-9)) "mean" 7.0 sum.S.mean
  | None -> Alcotest.fail "non-empty series must summarize")

let test_bucket_gaps () =
  let h = S.histogram ~bucket_width:10. in
  List.iter (S.record h) [ 1.; 35. ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "interior zero buckets present"
    [ (0., 1); (10., 0); (20., 0); (30., 1) ]
    (S.buckets h)

let test_quantiles () =
  let s = S.series () in
  Alcotest.(check bool) "empty quantile" true (S.quantile_opt s ~q:0.5 = None);
  List.iter (S.observe s) [ 4.0; 1.0; 3.0; 2.0 ];
  let q x = Option.get (S.quantile_opt s ~q:x) in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (q 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 4.0 (q 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates" 2.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "clamped below" 1.0 (q (-1.0))

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb f)

let props =
  [
    prop "events always fire in nondecreasing time order"
      QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1000))
      (fun delays ->
        let e = E.create () in
        let fired = ref [] in
        List.iter
          (fun d -> E.schedule e ~delay:d (fun () -> fired := E.now e :: !fired))
          delays;
        E.run e;
        let fired = List.rev !fired in
        List.length fired = List.length delays
        && fst
             (List.fold_left
                (fun (ok, prev) t -> (ok && t >= prev, t))
                (true, 0) fired));
    (* quantile_opt keeps its sorted samples between calls; every answer
       must equal a fresh copy-and-sort of everything observed so far *)
    prop "quantiles match a fresh sort under interleaved observes"
      QCheck.(
        list_of_size
          Gen.(1 -- 200)
          (pair bool
             (pair (float_bound_inclusive 1000.) (float_bound_inclusive 1.))))
      (fun ops ->
        let s = S.series () in
        let seen = ref [] in
        List.for_all
          (fun (is_observe, (x, q)) ->
            if is_observe then begin
              S.observe s x;
              seen := x :: !seen;
              true
            end
            else
              let expect =
                match Array.of_list !seen with
                | [||] -> None
                | a ->
                    Array.sort Float.compare a;
                    let n = Array.length a in
                    let pos = q *. float_of_int (n - 1) in
                    let i = int_of_float pos in
                    let frac = pos -. float_of_int i in
                    Some
                      (if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
                       else a.(i))
              in
              S.quantile_opt s ~q = expect)
          ops);
  ]

let () =
  Alcotest.run "desim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "livelock guard" `Quick test_livelock_guard;
          Alcotest.test_case "drain_or_fail clean" `Quick
            test_drain_or_fail_clean;
          Alcotest.test_case "heap stress" `Quick test_heap_stress;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "summarize_opt" `Quick test_summarize_opt;
          Alcotest.test_case "bucket gaps" `Quick test_bucket_gaps;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
        ] );
      ("properties", props);
    ]
