(* SLR-aware interconnect generator: structure, latency model, messaging. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prm = Noc.Params.default ~clock_ps:4000

let eps_of_list slrs =
  List.mapi (fun i slr -> { Noc.ep_id = i; ep_slr = slr }) slrs

let test_single_endpoint () =
  let noc = Noc.build prm ~root_slr:0 ~endpoints:(eps_of_list [ 0 ]) in
  check_int "one buffer minimum" 1 (Noc.n_buffers noc);
  check_int "no crossings" 0 (Noc.n_slr_crossings noc);
  check_int "latency = 1 node" (1 * 4000) (Noc.latency_ps noc ~ep_id:0)

let test_fanout_tree_depth () =
  (* 16 endpoints at fanout 4 on one SLR: depth 2, 4+1 buffers *)
  let noc =
    Noc.build prm ~root_slr:0
      ~endpoints:(eps_of_list (List.init 16 (fun _ -> 0)))
  in
  check_int "depth 2" 2 (Noc.depth_of noc ~ep_id:0);
  check_int "5 buffers (4 leaves groups + root)" 5 (Noc.n_buffers noc);
  (* 17 endpoints needs another level *)
  let noc17 =
    Noc.build prm ~root_slr:0
      ~endpoints:(eps_of_list (List.init 17 (fun _ -> 0)))
  in
  check_int "depth 3 past fanout^2" 3 (Noc.depth_of noc17 ~ep_id:0)

let test_slr_crossing_latency () =
  let noc =
    Noc.build prm ~root_slr:0 ~endpoints:(eps_of_list [ 0; 1; 2 ])
  in
  let cycles ep_id = Noc.latency_ps noc ~ep_id / prm.Noc.Params.clock_ps in
  let l0 = cycles 0 and l1 = cycles 1 and l2 = cycles 2 in
  check_bool "farther SLR = more latency" true (l0 < l1 && l1 < l2);
  check_int "crossing cost" prm.Noc.Params.slr_crossing_latency_cycles (l1 - l0);
  check_int "crossings counted" 3 (Noc.n_slr_crossings noc)

let test_duplicate_endpoint_rejected () =
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Noc.build: duplicate endpoint id") (fun () ->
      ignore
        (Noc.build prm ~root_slr:0
           ~endpoints:[ { Noc.ep_id = 1; ep_slr = 0 }; { Noc.ep_id = 1; ep_slr = 1 } ]))

let test_send_timing () =
  let e = Desim.Engine.create () in
  let noc = Noc.build prm ~root_slr:0 ~endpoints:(eps_of_list [ 0; 2 ]) in
  let t_near = ref 0 and t_far = ref 0 in
  ignore (Noc.send noc e ~ep_id:0 (fun () -> t_near := Desim.Engine.now e));
  ignore (Noc.send noc e ~ep_id:1 (fun () -> t_far := Desim.Engine.now e));
  Desim.Engine.run e;
  check_int "near latency" (Noc.latency_ps noc ~ep_id:0) !t_near;
  check_int "far latency" (Noc.latency_ps noc ~ep_id:1) !t_far;
  check_int "messages counted" 2 (Noc.messages_sent noc)

let test_describe () =
  let noc =
    Noc.build prm ~root_slr:1 ~endpoints:(eps_of_list [ 0; 0; 1; 2; 2; 2 ])
  in
  let d = Noc.describe noc in
  check_bool "mentions endpoints" true
    (String.length d > 0
    && String.sub d 0 8 = "tree NoC")

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:150 ~name arb f)

let props =
  [
    prop "every endpoint routes with positive bounded latency"
      QCheck.(list_of_size Gen.(1 -- 200) (int_bound 2))
      (fun slrs ->
        let noc = Noc.build prm ~root_slr:0 ~endpoints:(eps_of_list slrs) in
        List.for_all
          (fun i ->
            let l = Noc.latency_ps noc ~ep_id:i / prm.Noc.Params.clock_ps in
            l >= 1 && l <= 64)
          (List.init (List.length slrs) (fun i -> i)));
    prop "buffers grow monotonically with endpoint count (same SLR)"
      QCheck.(1 -- 150)
      (fun n ->
        let b k =
          Noc.n_buffers
            (Noc.build prm ~root_slr:0
               ~endpoints:(eps_of_list (List.init k (fun _ -> 0))))
        in
        b n <= b (n + 4));
    prop "lower fanout never reduces depth"
      QCheck.(2 -- 100)
      (fun n ->
        let depth fanout =
          let p = { prm with Noc.Params.max_fanout = fanout } in
          let noc =
            Noc.build p ~root_slr:0
              ~endpoints:(eps_of_list (List.init n (fun _ -> 0)))
          in
          Noc.depth_of noc ~ep_id:0
        in
        depth 2 >= depth 4 && depth 4 >= depth 8);
  ]

let () =
  Alcotest.run "noc"
    [
      ( "structure",
        [
          Alcotest.test_case "single endpoint" `Quick test_single_endpoint;
          Alcotest.test_case "fanout/depth" `Quick test_fanout_tree_depth;
          Alcotest.test_case "slr crossings" `Quick test_slr_crossing_latency;
          Alcotest.test_case "duplicates rejected" `Quick
            test_duplicate_endpoint_rejected;
        ] );
      ( "messaging",
        [
          Alcotest.test_case "send timing" `Quick test_send_timing;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ("properties", props);
    ]
