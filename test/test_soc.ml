(* The simulated SoC: reader/writer timing semantics, scratchpads,
   command dispatch/queueing, and a full vecadd integration run. *)

module B = Beethoven
module Soc = B.Soc
module C = B.Config
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a single-core SoC whose behavior is injected per test *)
let mk_soc ?(read_channels = [ C.read_channel ~name:"in" ~data_bytes:4 () ])
    ?(write_channels = [ C.write_channel ~name:"out" ~data_bytes:4 () ])
    ?(scratchpads = []) behavior =
  let cfg =
    C.make ~name:"t"
      [
        C.system ~name:"S" ~n_cores:1 ~read_channels ~write_channels
          ~scratchpads
          ~commands:
            [ B.Cmd_spec.make ~name:"go" ~funct:0 ~response_bits:32 [] ]
          ();
      ]
  in
  let design = B.Elaborate.elaborate cfg D.aws_f1 in
  Soc.create design ~behaviors:(fun _ -> behavior)

let go_cmd soc k =
  Soc.send_command soc
    {
      B.Rocc.system_id = 0;
      core_id = 0;
      funct = 0;
      expects_response = true;
      payload1 = 0L;
      payload2 = 0L;
    }
    ~on_response:k

let test_reader_stream_rate () =
  (* items are delivered at most one per fabric cycle, in order *)
  let deliveries = ref [] in
  let soc =
    mk_soc (fun ctx _ ~respond ->
        let r = Soc.reader ctx "in" in
        Soc.Reader.stream r ~addr:0 ~bytes:(256 * 4)
          ~on_item:(fun ~offset ->
            deliveries := (offset, Desim.Engine.now ctx.Soc.engine) :: !deliveries)
          ~on_done:(fun () -> respond 0L)
          ())
  in
  let got = ref false in
  go_cmd soc (fun _ -> got := true);
  Desim.Engine.run (Soc.engine soc);
  check_bool "completed" true !got;
  let ds = List.rev !deliveries in
  check_int "256 items" 256 (List.length ds);
  check_bool "offsets in order" true
    (List.map fst ds = List.init 256 (fun i -> i * 4));
  (* at most one per 4ns cycle *)
  let rec spaced = function
    | (_, t1) :: ((_, t2) :: _ as rest) -> t2 - t1 >= 4000 && spaced rest
    | _ -> true
  in
  check_bool "max 1 item per cycle" true (spaced ds)

let test_reader_rejects_concurrent_streams () =
  let failed = ref false in
  let soc =
    mk_soc (fun ctx _ ~respond ->
        let r = Soc.reader ctx "in" in
        Soc.Reader.stream r ~addr:0 ~bytes:64
          ~on_item:(fun ~offset:_ -> ())
          ~on_done:(fun () -> respond 0L)
          ();
        (try
           Soc.Reader.stream r ~addr:0 ~bytes:64
             ~on_item:(fun ~offset:_ -> ())
             ~on_done:ignore ()
         with Failure _ -> failed := true))
  in
  go_cmd soc (fun _ -> ());
  Desim.Engine.run (Soc.engine soc);
  check_bool "second stream rejected while busy" true !failed

let test_writer_counts_and_completion () =
  let soc =
    mk_soc (fun ctx _ ~respond ->
        let w = Soc.writer ctx "out" in
        let n = 100 in
        Soc.Writer.begin_txn w ~addr:4096 ~bytes:(n * 4) ~on_done:(fun () ->
            respond 7L);
        let rec push i =
          if i < n then
            Soc.Writer.push w ~on_accept:(fun () -> push (i + 1))
        in
        push 0)
  in
  let resp = ref 0L in
  go_cmd soc (fun r -> resp := r.B.Rocc.resp_data);
  Desim.Engine.run (Soc.engine soc);
  Alcotest.(check int64) "done fires after all B responses" 7L !resp;
  let writes =
    Array.fold_left
      (fun acc p -> acc + Axi.writes_issued p)
      0 (Soc.axi_ports soc)
  in
  check_bool "axi saw writes" true (writes > 0)

let test_scratchpad_init_and_access () =
  let spads =
    [ C.scratchpad ~name:"sp" ~data_bits:64 ~n_datas:128 ~init_from_memory:true () ]
  in
  let seen = ref 0L in
  let soc =
    mk_soc ~scratchpads:spads (fun ctx _ ~respond ->
        let sp = Soc.scratchpad ctx "sp" in
        check_int "depth" 128 (Soc.Scratchpad.depth sp);
        Soc.Scratchpad.init_from_memory sp ~addr:8192 ~on_done:(fun () ->
            seen := Soc.Scratchpad.get_u64 sp 5;
            Soc.Scratchpad.set_u64 sp 6 99L;
            respond (Soc.Scratchpad.get_u64 sp 6))
          ())
  in
  Soc.write_u64 soc (8192 + 40) 4242L;
  let resp = ref 0L in
  go_cmd soc (fun r -> resp := r.B.Rocc.resp_data);
  Desim.Engine.run (Soc.engine soc);
  Alcotest.(check int64) "init pulled device contents" 4242L !seen;
  Alcotest.(check int64) "set/get roundtrip" 99L !resp

let test_core_queues_commands () =
  (* two commands to one core run strictly one after the other *)
  let starts = ref [] in
  let soc =
    mk_soc (fun ctx _ ~respond ->
        starts := Desim.Engine.now ctx.Soc.engine :: !starts;
        Soc.after_cycles ctx 1000 (fun () -> respond 0L))
  in
  let done_count = ref 0 in
  go_cmd soc (fun _ -> incr done_count);
  go_cmd soc (fun _ -> incr done_count);
  Desim.Engine.run (Soc.engine soc);
  check_int "both completed" 2 !done_count;
  match List.rev !starts with
  | [ t1; t2 ] ->
      check_bool "second starts after first's 1000 cycles" true
        (t2 - t1 >= 1000 * 4000)
  | _ -> Alcotest.fail "expected two starts"

let test_mmio_and_noc_latency () =
  (* a do-nothing command still takes 2x (MMIO + NoC) time *)
  let soc = mk_soc (fun _ _ ~respond -> respond 0L) in
  let finish = ref 0 in
  go_cmd soc (fun _ -> finish := Desim.Engine.now (Soc.engine soc));
  Desim.Engine.run (Soc.engine soc);
  let mmio = D.aws_f1.D.host.D.mmio_latency_ps in
  check_bool "roundtrip >= 2x mmio" true (!finish >= 2 * mmio)

(* ---- full integration: vecadd on 1..4 cores ---- *)

let test_vecadd_end_to_end () =
  List.iter
    (fun cores ->
      let expected, actual, _ =
        Kernels.Vecadd.run ~n_cores:cores ~n_eles:2048 ~platform:D.aws_f1 ()
      in
      check_bool (Printf.sprintf "%d cores correct" cores) true
        (expected = actual))
    [ 1; 3 ]

let test_vecadd_multicore_speedup () =
  let _, _, t1 = Kernels.Vecadd.run ~n_cores:1 ~n_eles:65536 ~platform:D.aws_f1 () in
  let _, _, t4 = Kernels.Vecadd.run ~n_cores:4 ~n_eles:65536 ~platform:D.aws_f1 () in
  check_bool "4 cores faster than 1" true (t4 < t1)

(* ---- property: streamed data arrives exactly once, in order ---- *)

let prop_stream =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"reader delivers each item exactly once"
       QCheck.(pair (1 -- 500) (int_bound 1000))
       (fun (n_items, addr_blk) ->
         let addr = addr_blk * 64 in
         let seen = Array.make n_items 0 in
         let ok = ref true in
         let soc =
           mk_soc (fun ctx _ ~respond ->
               let r = Soc.reader ctx "in" in
               Soc.Reader.stream r ~addr ~bytes:(n_items * 4)
                 ~on_item:(fun ~offset ->
                   let i = offset / 4 in
                   if i < 0 || i >= n_items then ok := false
                   else seen.(i) <- seen.(i) + 1)
                 ~on_done:(fun () -> respond 0L)
                 ())
         in
         let responded = ref false in
         go_cmd soc (fun _ -> responded := true);
         Desim.Engine.run (Soc.engine soc);
         !ok && !responded && Array.for_all (( = ) 1) seen))

(* ---- statistics ---- *)

let test_stats_latency_all_ports () =
  (* two memcpy cores stream through different DDR ports of the 4-port
     F1: the report's read latency covers every port, not just port 0 *)
  let cfg = C.make ~name:"m" [ Kernels.Memcpy.system ~n_cores:2 ] in
  let soc =
    Soc.create
      (B.Elaborate.elaborate cfg D.aws_f1)
      ~behaviors:(fun _ -> Kernels.Memcpy.behavior)
  in
  let module H = Runtime.Handle in
  let h = H.create soc in
  let copy core =
    let src = H.malloc h 8192 and dst = H.malloc h 8192 in
    H.send h ~system:"Memcpy" ~core ~cmd:Kernels.Memcpy.command
      ~args:
        [
          ("src", Int64.of_int src.H.rp_addr);
          ("dst", Int64.of_int dst.H.rp_addr);
          ("bytes", 8192L);
        ]
  in
  List.iter (fun hd -> ignore (H.await h hd)) [ copy 0; copy 1 ];
  let read_ports =
    Array.to_list (Soc.axi_ports soc)
    |> List.filter_map (fun p ->
           Desim.Stats.summarize_opt (Axi.read_latency p))
  in
  check_bool "reads on more than one port" true (List.length read_ports > 1);
  let n = List.fold_left (fun a s -> a + s.Desim.Stats.n) 0 read_ports in
  let total =
    List.fold_left (fun a s -> a +. s.Desim.Stats.total) 0. read_ports
  in
  let max_ps =
    List.fold_left (fun a s -> Float.max a s.Desim.Stats.max) 0. read_ports
  in
  let expected =
    Printf.sprintf "read latency mean %.0f ns (max %.0f)"
      (total /. float_of_int n /. 1000.)
      (max_ps /. 1000.)
  in
  let report = Soc.stats_report soc in
  let has needle =
    let k = String.length needle in
    let rec go i =
      i + k <= String.length report
      && (String.sub report i k = needle || go (i + 1))
    in
    go 0
  in
  check_bool ("report says: " ^ expected) true (has expected)

let () =
  Alcotest.run "soc"
    [
      ( "reader",
        [
          Alcotest.test_case "stream rate" `Quick test_reader_stream_rate;
          Alcotest.test_case "busy rejected" `Quick
            test_reader_rejects_concurrent_streams;
        ] );
      ( "writer",
        [ Alcotest.test_case "push/complete" `Quick test_writer_counts_and_completion ] );
      ( "scratchpad",
        [ Alcotest.test_case "init/access" `Quick test_scratchpad_init_and_access ] );
      ( "commands",
        [
          Alcotest.test_case "queueing" `Quick test_core_queues_commands;
          Alcotest.test_case "latency floor" `Quick test_mmio_and_noc_latency;
        ] );
      ( "integration",
        [
          Alcotest.test_case "vecadd correct" `Quick test_vecadd_end_to_end;
          Alcotest.test_case "multicore speedup" `Quick
            test_vecadd_multicore_speedup;
        ] );
      ( "stats",
        [
          Alcotest.test_case "read latency over all ports" `Quick
            test_stats_latency_all_ports;
        ] );
      ("properties", [ prop_stream ]);
    ]
