(* The simulated SoC: reader/writer timing semantics, scratchpads,
   command dispatch/queueing, and a full vecadd integration run. *)

module B = Beethoven
module Soc = B.Soc
module C = B.Config
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s needle =
  let k = String.length needle in
  let rec go i =
    i + k <= String.length s && (String.sub s i k = needle || go (i + 1))
  in
  go 0

(* a single-core SoC whose behavior is injected per test *)
let mk_soc ?memory_bytes ?tracer ?(platform = D.aws_f1)
    ?(read_channels = [ C.read_channel ~name:"in" ~data_bytes:4 () ])
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
  let design = B.Elaborate.elaborate cfg platform in
  Soc.create ?memory_bytes ?tracer design ~behaviors:(fun _ -> behavior)

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

(* 64 B items on 16 B beats: a 5-beat burst in a 5-beat buffer would wait
   for a second item that only that burst's completion makes room for; so
   would a fourth 24 B item (72 B buffered, short of the 80 B burst) *)
let test_writer_refuses_wide_item_layouts () =
  let refused data_bytes ~buffer_beats =
    let refused = ref false in
    let soc =
      mk_soc ~platform:D.kria
        ~write_channels:
          [
            C.write_channel ~name:"out" ~data_bytes ~burst_beats:5 ~buffer_beats ();
          ]
        (fun ctx _ ~respond ->
          (try
             Soc.Writer.begin_txn (Soc.writer ctx "out") ~addr:0 ~bytes:256
               ~on_done:ignore
           with Invalid_argument _ -> refused := true);
          respond 0L)
    in
    go_cmd soc ignore;
    Desim.Engine.run (Soc.engine soc);
    !refused
  in
  check_bool "buffer of one burst refused" true (refused 64 ~buffer_beats:5);
  check_bool "room for a burst and an item accepted" false
    (refused 64 ~buffer_beats:8);
  check_bool "24 B items in 5 beats refused" true (refused 24 ~buffer_beats:5);
  check_bool "24 B items in 6 beats accepted" false
    (refused 24 ~buffer_beats:6)

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
            let row i = Bytes.get_int64_le (Soc.Scratchpad.get sp i) 0 in
            seen := row 5;
            let v = Bytes.create 8 in
            Bytes.set_int64_le v 0 99L;
            Soc.Scratchpad.set sp 6 v;
            respond (row 6))
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

(* ---- property: the writer ships the burst plan within its buffer ---- *)

(* The AXI write bursts of a traced run, read from the Chrome trace:
   (address, beats, end time in ps). *)
let write_bursts tracer =
  let json = Trace.to_chrome_json tracer in
  let key = "{\"name\":\"wr 0x" in
  let rec from i acc =
    if i + String.length key > String.length json then acc
    else if String.sub json i (String.length key) <> key then from (i + 1) acc
    else
      let event = String.sub json i (min 160 (String.length json - i)) in
      match
        Scanf.sscanf event
          "{\"name\":\"wr 0x%x x%d\",\"cat\":\"axi\",\"ph\":\"X\",\"ts\":%d.%d,\"dur\":%d.%d"
          (fun addr beats us ps dur_us dur_ps ->
            (addr, beats, ((us + dur_us) * 1_000_000) + ps + dur_ps))
      with
      | burst -> from (i + 1) (burst :: acc)
      | exception (Scanf.Scan_failure _ | End_of_file) -> from (i + 1) acc
  in
  from 0 []

(* Items of 4, 16, 24 or 64 B on 16 or 64 B beats, so some items are
   wider than a beat and some share only part of it, pushed with random
   gaps into a writer of random burst, in-flight and buffer sizes. The
   bursts must be the padded region's legal split, the bytes accepted
   and not yet freed must fit the buffer, and the transaction must
   complete. The buffer holds a burst and, past it, one item less the
   granule item and beat share: what [Writer.begin_txn] requires. *)
let prop_writer_plan =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let gen =
    QCheck.Gen.(
      let* platform = oneofl [ D.kria; D.aws_f1 ] in
      let bb = platform.D.axi.Axi.Params.data_bytes in
      let* item = oneofl [ 4; 16; 24; 64 ] in
      let* burst = 1 -- 16 in
      let* in_flight = 1 -- 4 in
      let room = (item - gcd item bb + bb - 1) / bb in
      let* buffer = burst + room -- (burst + 16) in
      let* addr_beats = 0 -- 400 in
      let* n_items = 1 -- 150 in
      let* gaps = list_repeat n_items (0 -- 3) in
      return
        (platform, item, burst, in_flight, buffer, addr_beats * bb, gaps))
  in
  let print (p, item, burst, in_flight, buffer, addr, gaps) =
    Printf.sprintf
      "beat %d B, item %d B, burst %d, in flight %d, buffer %d, addr 0x%x, \
       %d items"
      p.D.axi.Axi.Params.data_bytes item burst in_flight buffer addr
      (List.length gaps)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"writer follows the burst plan"
       (QCheck.make ~print gen)
       (fun (platform, item, burst, in_flight, buffer, addr, gaps) ->
         let prm = platform.D.axi in
         let bb = prm.Axi.Params.data_bytes in
         let bytes = List.length gaps * item in
         let accepted = ref [] in
         let tracer = Trace.create () in
         let soc =
           mk_soc ~tracer ~platform
             ~write_channels:
               [
                 C.write_channel ~name:"out" ~data_bytes:item
                   ~burst_beats:burst ~max_in_flight:in_flight
                   ~buffer_beats:buffer ();
               ]
             (fun ctx _ ~respond ->
               let w = Soc.writer ctx "out" in
               Soc.Writer.begin_txn w ~addr ~bytes ~on_done:(fun () ->
                   respond 0L);
               ignore
                 (List.fold_left
                    (fun cycle gap ->
                      let cycle = cycle + gap in
                      Soc.after_cycles ctx cycle (fun () ->
                          Soc.Writer.push w ~on_accept:(fun () ->
                              accepted :=
                                Desim.Engine.now ctx.Soc.engine :: !accepted));
                      cycle)
                    0 gaps))
         in
         let responded = ref false in
         go_cmd soc (fun _ -> responded := true);
         Desim.Engine.run (Soc.engine soc);
         let bursts = List.sort compare (write_bursts tracer) in
         let plan =
           Axi.Burst.split
             ~params:
               {
                 prm with
                 Axi.Params.max_burst_beats =
                   min burst prm.Axi.Params.max_burst_beats;
               }
             ~addr
             ~bytes:((bytes + bb - 1) / bb * bb)
         in
         (* the data bytes a burst carried, freed when it completed *)
         let carried (a, beats, _) = min (a + (beats * bb)) (addr + bytes) - a in
         let fits i at =
           let freed =
             List.fold_left
               (fun acc ((_, _, stop) as b) ->
                 if stop <= at then acc + carried b else acc)
               0 bursts
           in
           ((i + 1) * item) - freed <= buffer * bb
         in
         !responded
         && List.length !accepted = List.length gaps
         && List.map (fun (a, beats, _) -> { Axi.Burst.addr = a; beats }) bursts
            = plan
         && List.for_all Fun.id (List.mapi fits (List.rev !accepted))))

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
  check_bool ("report says: " ^ expected) true
    (contains (Soc.stats_report soc) expected)

(* ---- device memory: a page store that behaves like flat bytes ---- *)

let idle _ _ ~respond = respond 0L

(* not a whole number of 4 KB pages, so the last page is partial *)
let odd_bytes = (3 * 4096) + 100

let raises f = try f (); false with Invalid_argument _ -> true

let test_memory_out_of_range () =
  let soc = mk_soc ~memory_bytes:odd_bytes idle in
  let n = odd_bytes in
  let cases =
    [
      ("read_u8 at end", fun () -> ignore (Soc.read_u8 soc n));
      ("read_u32 across end", fun () -> ignore (Soc.read_u32 soc (n - 2)));
      ("read_u64 negative", fun () -> ignore (Soc.read_u64 soc (-8)));
      ("write_u8 negative", fun () -> Soc.write_u8 soc (-1) 1);
      ("write_u32 across end", fun () -> Soc.write_u32 soc (n - 3) 1l);
      ("write_u64 at end", fun () -> Soc.write_u64 soc n 1L);
      ( "blit_in across end",
        fun () -> Soc.blit_in soc ~src:(Bytes.make 8 'x') ~dst_addr:(n - 4) );
      ( "blit_out negative",
        fun () -> Soc.blit_out soc ~src_addr:(-1) ~dst:(Bytes.create 4) );
      ( "blit_out across end",
        fun () -> Soc.blit_out soc ~src_addr:(n - 1) ~dst:(Bytes.create 2) );
      ( "copy_within source across end",
        fun () -> Soc.copy_within soc ~src:(n - 10) ~dst:0 ~bytes:20 );
      ( "copy_within destination across end",
        fun () -> Soc.copy_within soc ~src:0 ~dst:(n - 10) ~bytes:20 );
      ( "copy_within negative length",
        fun () -> Soc.copy_within soc ~src:0 ~dst:64 ~bytes:(-1) );
    ]
  in
  List.iter (fun (name, f) -> check_bool name true (raises f)) cases;
  (* a refused access writes nothing, not even its in-range part *)
  let written = ref 0 in
  for a = n - 16 to n - 1 do
    written := !written + Soc.read_u8 soc a
  done;
  check_int "no partial writes" 0 !written;
  check_bool "last byte in range" false
    (raises (fun () -> Soc.write_u8 soc (n - 1) 7));
  check_int "last byte holds" 7 (Soc.read_u8 soc (n - 1))

let test_memory_fresh_socs_independent () =
  (* every untouched page of every SoC shares one zero page: a write must
     not land in it *)
  let a = mk_soc idle in
  Soc.write_u32 a 4100 0xdeadbeefl;
  Soc.blit_in a ~src:(Bytes.make 64 'z') ~dst_addr:8190;
  Soc.copy_within a ~src:4100 ~dst:20_000 ~bytes:4;
  let b = mk_soc idle in
  check_int "fresh SoC reads zero" 0 (Int32.to_int (Soc.read_u32 b 4100));
  check_int "nor the blit" 0 (Soc.read_u8 b 8191);
  check_int "nor the copy" 0 (Int32.to_int (Soc.read_u32 b 20_000));
  check_int "untouched neighbour in the written SoC" 0 (Soc.read_u8 a 4099);
  check_bool "write landed" true (Soc.read_u32 a 20_000 = 0xdeadbeefl)

let test_scratchpad_init_untouched () =
  let spads =
    [
      C.scratchpad ~name:"sp" ~data_bits:64 ~n_datas:64 ~init_from_memory:true
        ();
    ]
  in
  let nonzero = ref (-1) in
  let soc =
    mk_soc ~scratchpads:spads (fun ctx _ ~respond ->
        let sp = Soc.scratchpad ctx "sp" in
        for row = 0 to 63 do
          Soc.Scratchpad.set sp row (Bytes.make 8 '\255')
        done;
        Soc.Scratchpad.init_from_memory sp ~addr:(4096 - 256)
          ~on_done:(fun () ->
            nonzero := 0;
            for row = 0 to 63 do
              if Bytes.exists (( <> ) '\000') (Soc.Scratchpad.get sp row) then
                incr nonzero
            done;
            respond 0L)
          ())
  in
  go_cmd soc ignore;
  Desim.Engine.run (Soc.engine soc);
  check_int "every row filled with zeros" 0 !nonzero

let test_memory_bytes_must_be_positive () =
  List.iter
    (fun memory_bytes ->
      match mk_soc ~memory_bytes idle with
      | _ -> Alcotest.failf "memory_bytes = %d accepted" memory_bytes
      | exception Invalid_argument msg ->
          check_bool ("message names the size: " ^ msg) true
            (contains msg "memory_bytes"))
    [ 0; -4096 ]

let test_boot_allocates_no_device_memory () =
  (* four 128 MB devices, as a cluster boots them; a flat buffer would
     add 16.8 M heap words each *)
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let before = heap () in
  let socs =
    List.init 4 (fun _ -> mk_soc ~memory_bytes:(128 * 1024 * 1024) idle)
  in
  let grown = heap () - before in
  check_bool
    (Printf.sprintf "heap grew by %d words (< 1 M)" grown)
    true (grown < 1_000_000);
  check_int "all four live" 4 (List.length (Sys.opaque_identity socs))

type mem_op =
  | W8 of int * int
  | W32 of int * int32
  | W64 of int * int64
  | R8 of int
  | R32 of int
  | R64 of int
  | Blit_in of int * string
  | Blit_out of int * int
  | Copy of int * int * int

let show_op = function
  | W8 (a, v) -> Printf.sprintf "write_u8 %d %d" a v
  | W32 (a, v) -> Printf.sprintf "write_u32 %d %ld" a v
  | W64 (a, v) -> Printf.sprintf "write_u64 %d %Ld" a v
  | R8 a -> Printf.sprintf "read_u8 %d" a
  | R32 a -> Printf.sprintf "read_u32 %d" a
  | R64 a -> Printf.sprintf "read_u64 %d" a
  | Blit_in (a, s) -> Printf.sprintf "blit_in %d (%d B)" a (String.length s)
  | Blit_out (a, n) -> Printf.sprintf "blit_out %d (%d B)" a n
  | Copy (s, d, n) -> Printf.sprintf "copy_within %d -> %d (%d B)" s d n

let gen_mem_op =
  let open QCheck.Gen in
  (* a few bytes either side of a page boundary or of the end *)
  let addr =
    map2 ( + )
      (oneofl [ 0; 4096; 8192; 12288; odd_bytes ])
      (int_range (-12) 12)
  in
  let len = frequency [ (4, int_range 0 72); (1, int_range 0 6000) ] in
  let byte = int_bound 255 in
  frequency
    [
      (2, map2 (fun a v -> W8 (a, v)) addr byte);
      (3, map2 (fun a v -> W32 (a, Int32.of_int v)) addr int);
      (3, map2 (fun a v -> W64 (a, Int64.of_int v)) addr int);
      (1, map (fun a -> R8 a) addr);
      (2, map (fun a -> R32 a) addr);
      (2, map (fun a -> R64 a) addr);
      (2, map2 (fun a s -> Blit_in (a, s)) addr (string_size ~gen:char len));
      (2, map2 (fun a n -> Blit_out (a, n)) addr len);
      (2, map3 (fun s d n -> Copy (s, d, n)) addr addr len);
      (* overlapping copies, the destination below or above the source *)
      ( 3,
        map3
          (fun s d n -> Copy (s, s + d, n))
          addr (int_range (-100) 100) len );
    ]

(* the outcome of one op: what it read, or that it raised *)
let outcome f = try f () with Invalid_argument _ -> "Invalid_argument"

let on_soc soc = function
  | W8 (a, v) -> outcome (fun () -> Soc.write_u8 soc a v; "")
  | W32 (a, v) -> outcome (fun () -> Soc.write_u32 soc a v; "")
  | W64 (a, v) -> outcome (fun () -> Soc.write_u64 soc a v; "")
  | R8 a -> outcome (fun () -> string_of_int (Soc.read_u8 soc a))
  | R32 a -> outcome (fun () -> Int32.to_string (Soc.read_u32 soc a))
  | R64 a -> outcome (fun () -> Int64.to_string (Soc.read_u64 soc a))
  | Blit_in (a, s) ->
      outcome (fun () ->
          Soc.blit_in soc ~src:(Bytes.of_string s) ~dst_addr:a;
          "")
  | Blit_out (a, n) ->
      outcome (fun () ->
          let b = Bytes.create n in
          Soc.blit_out soc ~src_addr:a ~dst:b;
          Bytes.to_string b)
  | Copy (s, d, n) ->
      outcome (fun () ->
          Soc.copy_within soc ~src:s ~dst:d ~bytes:n;
          "")

(* the reference: one flat buffer *)
let on_bytes m = function
  | W8 (a, v) -> outcome (fun () -> Bytes.set m a (Char.chr v); "")
  | W32 (a, v) -> outcome (fun () -> Bytes.set_int32_le m a v; "")
  | W64 (a, v) -> outcome (fun () -> Bytes.set_int64_le m a v; "")
  | R8 a -> outcome (fun () -> string_of_int (Char.code (Bytes.get m a)))
  | R32 a -> outcome (fun () -> Int32.to_string (Bytes.get_int32_le m a))
  | R64 a -> outcome (fun () -> Int64.to_string (Bytes.get_int64_le m a))
  | Blit_in (a, s) ->
      outcome (fun () ->
          Bytes.blit_string s 0 m a (String.length s);
          "")
  | Blit_out (a, n) -> outcome (fun () -> Bytes.sub_string m a n)
  | Copy (s, d, n) -> outcome (fun () -> Bytes.blit m s m d n; "")

let prop_pages_match_flat_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"page store agrees with flat bytes"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_op ops))
          QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
       (fun ops ->
         let soc = mk_soc ~memory_bytes:odd_bytes idle in
         let m = Bytes.make odd_bytes '\000' in
         List.for_all (fun op -> on_soc soc op = on_bytes m op) ops
         &&
         let all = Bytes.create odd_bytes in
         Soc.blit_out soc ~src_addr:0 ~dst:all;
         Bytes.equal all m))

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
        [
          Alcotest.test_case "push/complete" `Quick test_writer_counts_and_completion;
          Alcotest.test_case "wide item layouts refused" `Quick
            test_writer_refuses_wide_item_layouts;
        ] );
      ( "scratchpad",
        [
          Alcotest.test_case "init/access" `Quick
            test_scratchpad_init_and_access;
          Alcotest.test_case "init from untouched memory" `Quick
            test_scratchpad_init_untouched;
        ] );
      ( "memory",
        [
          Alcotest.test_case "out of range raises" `Quick
            test_memory_out_of_range;
          Alcotest.test_case "fresh SoCs share no writes" `Quick
            test_memory_fresh_socs_independent;
          Alcotest.test_case "memory_bytes must be positive" `Quick
            test_memory_bytes_must_be_positive;
          Alcotest.test_case "boot allocates no device memory" `Quick
            test_boot_allocates_no_device_memory;
          prop_pages_match_flat_bytes;
        ] );
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
      ("properties", [ prop_stream; prop_writer_plan ]);
    ]
