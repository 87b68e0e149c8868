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

(* A delay-0 self-rescheduler never lets the clock move: once 10M
   events have fired at one instant, the engine raises from [run] and
   from a [step] loop alike, naming the stuck clock. The event that
   would have fired next is still queued. A run is never too long: a
   positive-delay self-rescheduler fires more events than that under
   [run ~until] and stops at [until]. *)
let test_livelock_guard () =
  let spin e fired =
    let rec again () =
      incr fired;
      E.schedule e ~delay:0 again
    in
    E.schedule e ~delay:7 again
  in
  let e = E.create () and fired = ref 0 in
  spin e fired;
  (match E.run e with
  | () -> Alcotest.fail "expected Livelock from run"
  | exception E.Livelock { clock; pending } ->
      check_int "run: stuck clock" 7 clock;
      check_int "run: next event still queued" 1 pending;
      check_int "run: the clock-moving event, then 10M at one instant"
        10_000_001 !fired);
  let e = E.create () and fired = ref 0 in
  spin e fired;
  (match
     while E.step e do
       ()
     done
   with
  | () -> Alcotest.fail "expected Livelock from step"
  | exception E.Livelock { clock; pending } ->
      check_int "step: stuck clock" 7 clock;
      check_int "step: next event still queued" 1 pending;
      check_int "step: fired as many as run" 10_000_001 !fired);
  let e = E.create () and fired = ref 0 in
  let rec tick () =
    incr fired;
    E.schedule e ~delay:1 tick
  in
  E.schedule e ~delay:1 tick;
  E.run ~until:12_000_000 e;
  check_int "long run: clock parked at until" 12_000_000 (E.now e);
  check_int "long run: one event per tick" 12_000_000 !fired

let test_run_drains_clean () =
  let e = E.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    E.schedule e ~delay:3 (fun () -> incr hits)
  done;
  E.run e;
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

(* Lanes: a host engine and engines joined into its queue. *)

let lanes_of ranks =
  let host = E.create () in
  let lane rank =
    let e = E.create () in
    E.join e ~into:host ~rank;
    e
  in
  (host, List.map lane ranks)

let test_lane_rank_order () =
  let host, lanes = lanes_of [ 2; 1 ] in
  let l2 = List.nth lanes 0 and l1 = List.nth lanes 1 in
  let log = ref [] in
  let note s () = log := s :: !log in
  E.schedule l2 ~delay:4 (note "l2@4");
  E.schedule l1 ~delay:4 (note "l1@4");
  E.schedule host ~delay:4 (note "host@4");
  E.schedule l2 ~delay:3 (fun () ->
      note "l2@3" ();
      (* a same-time event on a lower rank still fires first *)
      E.schedule host ~delay:0 (note "host@3");
      E.schedule l2 ~delay:0 (note "l2@3b"));
  E.schedule l1 ~delay:3 (note "l1@3");
  (* running any lane runs the whole queue *)
  E.run l2;
  Alcotest.(check (list string))
    "by time, then rank, then scheduling order"
    [ "l1@3"; "l2@3"; "host@3"; "l2@3b"; "host@4"; "l1@4"; "l2@4" ]
    (List.rev !log);
  check_int "lanes share the clock" 4 (E.now l1)

let test_join_rejects () =
  let host = E.create () in
  let busy = E.create () in
  E.schedule busy ~delay:1 ignore;
  Alcotest.check_raises "pending events"
    (Invalid_argument "Engine.join: the engine has pending events")
    (fun () -> E.join busy ~into:host ~rank:1);
  let ahead = E.create () in
  E.schedule ahead ~delay:10 ignore;
  E.run ahead;
  Alcotest.check_raises "clock ahead"
    (Invalid_argument "Engine.join: the engine's clock is ahead of the target's")
    (fun () -> E.join ahead ~into:host ~rank:1);
  List.iter
    (fun rank ->
      Alcotest.check_raises "rank out of range"
        (Invalid_argument "Engine.join: rank out of range")
        (fun () -> E.join (E.create ()) ~into:host ~rank))
    [ -1; 16384 ];
  (* the highest rank still orders after rank 0 *)
  let top = E.create () and log = ref [] in
  E.join top ~into:host ~rank:16383;
  E.schedule top ~delay:1 (fun () -> log := "top" :: !log);
  E.schedule host ~delay:1 (fun () -> log := "host" :: !log);
  E.run host;
  Alcotest.(check (list string)) "rank 16383 after rank 0" [ "host"; "top" ]
    (List.rev !log)

let test_unjoined_order () =
  let e = E.create () in
  let log = ref [] in
  List.iteri
    (fun i t -> E.schedule_at e ~time:t (fun () -> log := i :: !log))
    [ 3; 1; 3; 2; 1; 0; 2 ];
  E.run e;
  Alcotest.(check (list int))
    "an engine never joined fires by (time, scheduling order)"
    [ 5; 1; 4; 3; 6; 0; 2 ]
    (List.rev !log)

let test_halt () =
  let host, lanes = lanes_of [ 1 ] in
  let dev = List.hd lanes in
  let log = ref [] in
  E.schedule host ~delay:5 (fun () -> log := "host@5" :: !log);
  E.schedule dev ~delay:2 (fun () -> log := "dev@2" :: !log);
  E.schedule dev ~delay:9 (fun () -> log := "dev@9" :: !log);
  E.run ~until:2 host;
  E.halt dev;
  E.schedule dev ~delay:1 (fun () -> log := "dev@3" :: !log);
  E.run host;
  Alcotest.(check (list string))
    "a halted lane fires nothing" [ "dev@2"; "host@5" ] (List.rev !log);
  check_int "the clock stops at the last live event" 5 (E.now host)

(* A random script over a host engine and three joined lanes, checked
   against a sorted-list model of the queue. Each scheduled event may
   schedule one child when it fires, so same-time cascades cross lanes. *)
type op =
  | Sched of int * int * (int * int) option  (** lane, delay, child *)
  | Sched_at of int * int  (** lane, offset from now *)
  | Halt of int
  | Run_until of int * int  (** lane run, offset from now *)
  | Step of int

let show_op = function
  | Sched (l, d, None) -> Printf.sprintf "sched %d +%d" l d
  | Sched (l, d, Some (cl, cd)) ->
      Printf.sprintf "sched %d +%d then %d +%d" l d cl cd
  | Sched_at (l, d) -> Printf.sprintf "at %d +%d" l d
  | Halt l -> Printf.sprintf "halt %d" l
  | Run_until (l, d) -> Printf.sprintf "run %d until +%d" l d
  | Step l -> Printf.sprintf "step %d" l

let gen_script =
  let open QCheck.Gen in
  let lane = int_bound 3 and delay = int_bound 4 in
  let op =
    frequency
      [
        (4, map3 (fun l d c -> Sched (l, d, c)) lane delay (opt (pair lane delay)));
        (2, map2 (fun l d -> Sched_at (l, d)) lane delay);
        (1, map (fun l -> Halt l) lane);
        (2, map2 (fun l d -> Run_until (l, d)) lane delay);
        (2, map (fun l -> Step l) lane);
      ]
  in
  pair (list_repeat 3 (int_bound 3)) (list_size (1 -- 60) op)

let arb_script =
  QCheck.make gen_script ~print:(fun (ranks, ops) ->
      Printf.sprintf "ranks [%s]: %s"
        (String.concat ";" (List.map string_of_int ranks))
        (String.concat ", " (List.map show_op ops)))

(* Both sides return the fired (time, lane, id) list and the clock after
   every op; the engine side also reports whether a halted lane fired. *)
let engine_side (ranks, ops) =
  let host, joined = lanes_of ranks in
  let lanes = Array.of_list (host :: joined) in
  let halted = Array.make 4 false in
  let log = ref [] and clocks = ref [] and bad = ref false and next = ref 0 in
  let rec action l id child () =
    if halted.(l) then bad := true;
    log := (E.now lanes.(l), l, id) :: !log;
    Option.iter (fun (cl, cd) -> fresh cl cd None) child
  and fresh l d child =
    let id = !next in
    incr next;
    E.schedule lanes.(l) ~delay:d (action l id child)
  in
  List.iter
    (fun op ->
      (match op with
      | Sched (l, d, child) -> fresh l d child
      | Sched_at (l, d) ->
          let id = !next in
          incr next;
          E.schedule_at lanes.(l) ~time:(E.now host + d) (action l id None)
      | Halt l ->
          halted.(l) <- true;
          E.halt lanes.(l)
      | Run_until (l, d) -> E.run ~until:(E.now host + d) lanes.(l)
      | Step l -> ignore (E.step lanes.(l)));
      clocks := E.now host :: !clocks)
    ops;
  E.run host;
  (List.rev !log, List.rev !clocks, !bad)

type mev = {
  m_key : int * int * int;  (* time, rank, seq *)
  m_lane : int;
  m_id : int;
  m_child : (int * int) option;
}

let model_side (ranks, ops) =
  let rank = Array.of_list (0 :: ranks) in
  let halted = Array.make 4 false in
  let pending = ref [] and clock = ref 0 and seq = ref 0 and next = ref 0 in
  let log = ref [] and clocks = ref [] in
  let add l time child =
    let id = !next in
    incr next;
    if not halted.(l) then begin
      let ev =
        { m_key = (time, rank.(l), !seq); m_lane = l; m_id = id; m_child = child }
      in
      incr seq;
      pending :=
        List.merge (fun a b -> compare a.m_key b.m_key) [ ev ] !pending
    end
  in
  let fire () =
    match !pending with
    | [] -> false
    | ev :: rest ->
        pending := rest;
        let time, _, _ = ev.m_key in
        clock := max !clock time;
        log := (!clock, ev.m_lane, ev.m_id) :: !log;
        Option.iter (fun (cl, cd) -> add cl (!clock + cd) None) ev.m_child;
        true
  in
  let due until =
    match !pending with { m_key = t, _, _; _ } :: _ -> t <= until | [] -> false
  in
  List.iter
    (fun op ->
      (match op with
      | Sched (l, d, child) -> add l (!clock + d) child
      | Sched_at (l, d) -> add l (!clock + d) None
      | Halt l ->
          halted.(l) <- true;
          pending := List.filter (fun ev -> ev.m_lane <> l) !pending
      | Run_until (_, d) ->
          let until = !clock + d in
          while due until do
            ignore (fire ())
          done;
          clock := max !clock until
      | Step _ -> ignore (fire ()));
      clocks := !clock :: !clocks)
    ops;
  while fire () do
    ()
  done;
  (List.rev !log, List.rev !clocks)

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
    prop "lanes fire by (time, rank, seq); halted lanes never fire"
      arb_script (fun script ->
        let log, clocks, halted_fired = engine_side script in
        (not halted_fired) && (log, clocks) = model_side script);
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
          Alcotest.test_case "run drains clean" `Quick test_run_drains_clean;
          Alcotest.test_case "heap stress" `Quick test_heap_stress;
          Alcotest.test_case "lane rank order" `Quick test_lane_rank_order;
          Alcotest.test_case "join rejects" `Quick test_join_rejects;
          Alcotest.test_case "unjoined order" `Quick test_unjoined_order;
          Alcotest.test_case "halt" `Quick test_halt;
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
