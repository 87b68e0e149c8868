(* AXI port model: burst splitting rules, per-ID ordering and
   out-of-order completion across IDs. *)

module E = Desim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk () =
  let e = E.create () in
  let d = Dram.create e Dram.Config.ddr4_2400 in
  (e, Axi.create e d Axi.Params.aws_f1)

(* ---- Burst.split ---- *)

let test_split_simple () =
  let segs =
    Axi.Burst.split ~params:Axi.Params.aws_f1 ~addr:0 ~bytes:(8 * 1024)
  in
  check_int "two 4KB bursts" 2 (List.length segs);
  List.iter
    (fun s -> check_int "64 beats" 64 s.Axi.Burst.beats)
    segs

let test_split_boundary () =
  (* a transfer straddling a 4KB boundary must split there *)
  let segs =
    Axi.Burst.split ~params:Axi.Params.aws_f1 ~addr:(4096 - 128) ~bytes:256
  in
  (match segs with
  | [ a; b ] ->
      check_int "first stops at boundary" 2 a.Axi.Burst.beats;
      check_int "second starts at boundary" 4096 b.Axi.Burst.addr
  | _ -> Alcotest.fail "expected exactly two segments");
  Alcotest.check_raises "unaligned rejected"
    (Invalid_argument "Burst.split: address not beat-aligned") (fun () ->
      ignore (Axi.Burst.split ~params:Axi.Params.aws_f1 ~addr:3 ~bytes:64))

let test_illegal_bursts_rejected () =
  let _, port = mk () in
  Alcotest.check_raises "too long"
    (Invalid_argument "Axi: illegal burst length") (fun () ->
      Axi.read port ~id:0 ~addr:0 ~beats:65 ~on_beat:(fun ~beat:_ -> ())
        ~on_done:ignore);
  Alcotest.check_raises "4KB crossing"
    (Invalid_argument "Axi: burst crosses a 4KB boundary") (fun () ->
      Axi.read port ~id:0 ~addr:(4096 - 64) ~beats:2
        ~on_beat:(fun ~beat:_ -> ())
        ~on_done:ignore);
  Alcotest.check_raises "bad id" (Invalid_argument "Axi: bad id") (fun () ->
      Axi.write port ~id:99 ~addr:0 ~beats:1 ~on_done:ignore)

let test_beats_in_order () =
  let e, port = mk () in
  let beats = ref [] in
  Axi.read port ~id:0 ~addr:0 ~beats:16
    ~on_beat:(fun ~beat -> beats := beat :: !beats)
    ~on_done:ignore;
  E.run e;
  Alcotest.(check (list int))
    "beats 0..15 in order"
    (List.init 16 (fun i -> i))
    (List.rev !beats)

let test_same_id_serializes () =
  (* two transactions on one ID: the second's first beat cannot precede
     the first's last beat *)
  let e, port = mk () in
  let t1_last = ref 0 and t2_first = ref max_int in
  Axi.read port ~id:0 ~addr:0 ~beats:16
    ~on_beat:(fun ~beat -> if beat = 15 then t1_last := E.now e)
    ~on_done:ignore;
  Axi.read port ~id:0 ~addr:8192 ~beats:16
    ~on_beat:(fun ~beat -> if beat = 0 then t2_first := min !t2_first (E.now e))
    ~on_done:ignore;
  E.run e;
  check_bool "strict order on one id" true (!t2_first >= !t1_last)

let test_distinct_ids_overlap () =
  (* on distinct IDs the second transaction is serviced concurrently: the
     gap between the two completions is only the extra bus time, far less
     than a full serialized transaction *)
  let completion_gap id2 =
    let e, port = mk () in
    let t1 = ref 0 and t2 = ref 0 in
    Axi.read port ~id:0 ~addr:0 ~beats:16
      ~on_beat:(fun ~beat:_ -> ())
      ~on_done:(fun _resp -> t1 := E.now e);
    Axi.read port ~id:id2 ~addr:8192 ~beats:16
      ~on_beat:(fun ~beat:_ -> ())
      ~on_done:(fun _resp -> t2 := E.now e);
    E.run e;
    !t2 - !t1
  in
  check_bool "distinct ids pipeline" true
    (completion_gap 1 < completion_gap 0)

let test_multi_id_is_faster () =
  let run n_ids =
    let e, port = mk () in
    let finish = ref 0 in
    let remaining = ref 16 in
    for i = 0 to 15 do
      Axi.read port ~id:(i mod n_ids) ~addr:(i * 1024) ~beats:16
        ~on_beat:(fun ~beat:_ -> ())
        ~on_done:(fun _resp ->
          decr remaining;
          if !remaining = 0 then finish := E.now e)
    done;
    E.run e;
    !finish
  in
  check_bool "4 ids beat 1 id" true (run 4 < run 1)

let test_write_response () =
  let e, port = mk () in
  let done_ = ref false in
  Axi.write port ~id:2 ~addr:4096 ~beats:8 ~on_done:(fun _resp -> done_ := true);
  E.run e;
  check_bool "B response delivered" true !done_;
  check_int "one write issued" 1 (Axi.writes_issued port)

(* ---- properties ---- *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:150 ~name arb f)

let props =
  [
    prop "split covers the transfer exactly, no burst crosses 4KB"
      QCheck.(pair (int_bound 10_000) (1 -- 300))
      (fun (addr_blk, n_beats) ->
        let p = Axi.Params.aws_f1 in
        let addr = addr_blk * p.Axi.Params.data_bytes in
        let bytes = n_beats * p.Axi.Params.data_bytes in
        let segs = Axi.Burst.split ~params:p ~addr ~bytes in
        (* contiguous coverage *)
        let covered, end_addr =
          List.fold_left
            (fun (ok, pos) s ->
              ( ok && s.Axi.Burst.addr = pos,
                s.Axi.Burst.addr + (s.Axi.Burst.beats * p.Axi.Params.data_bytes) ))
            (true, addr) segs
        in
        covered
        && end_addr = addr + bytes
        && List.for_all
             (fun s ->
               s.Axi.Burst.beats >= 1
               && s.Axi.Burst.beats <= p.Axi.Params.max_burst_beats
               &&
               let last =
                 s.Axi.Burst.addr
                 + (s.Axi.Burst.beats * p.Axi.Params.data_bytes)
                 - 1
               in
               s.Axi.Burst.addr / 4096 = last / 4096)
             segs);
    prop "per-ID transactions complete in issue order"
      QCheck.(list_of_size Gen.(2 -- 12) (pair (int_bound 3) (1 -- 16)))
      (fun txns ->
        let e, port = mk () in
        let completions = Hashtbl.create 4 in
        List.iteri
          (fun i (id, beats) ->
            Axi.read port ~id ~addr:(i * 4096) ~beats
              ~on_beat:(fun ~beat:_ -> ())
              ~on_done:(fun _resp ->
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt completions id)
                in
                Hashtbl.replace completions id (i :: cur)))
          txns;
        E.run e;
        Hashtbl.fold
          (fun _ order ok ->
            ok
            && List.rev order
               = List.sort compare (List.rev order))
          completions true);
  ]

let () =
  Alcotest.run "axi"
    [
      ( "burst",
        [
          Alcotest.test_case "simple split" `Quick test_split_simple;
          Alcotest.test_case "4KB boundary" `Quick test_split_boundary;
          Alcotest.test_case "illegal rejected" `Quick test_illegal_bursts_rejected;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "beats in order" `Quick test_beats_in_order;
          Alcotest.test_case "same id serializes" `Quick test_same_id_serializes;
          Alcotest.test_case "distinct ids overlap" `Quick test_distinct_ids_overlap;
          Alcotest.test_case "multi-id faster" `Quick test_multi_id_is_faster;
          Alcotest.test_case "write response" `Quick test_write_response;
        ] );
      ("properties", props);
    ]
