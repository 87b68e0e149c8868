(* Host runtime: allocator invariants and the fpga_handle services (DMA,
   command/response, server-lock contention accounting). *)

module H = Runtime.Handle
module A = Runtime.Alloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Allocator ---- *)

let test_alloc_basic () =
  let a = A.create ~size:(1 lsl 20) () in
  let p1 = Option.get (A.alloc a 100) in
  let p2 = Option.get (A.alloc a 5000) in
  check_int "aligned" 0 (p1 mod 4096);
  check_int "aligned 2" 0 (p2 mod 4096);
  check_bool "disjoint" true (p1 <> p2);
  check_int "rounding: 100 -> 4096, 5000 -> 8192" (4096 + 8192)
    ((1 lsl 20) - A.free_bytes a);
  check_bool "invariants" true (A.check_invariants a)

let test_alloc_exhaustion_and_reuse () =
  let a = A.create ~size:(16 * 4096) () in
  let ps = List.init 16 (fun _ -> Option.get (A.alloc a 4096)) in
  check_bool "17th fails" true (A.alloc a 1 = None);
  A.free a (List.nth ps 7);
  check_bool "freed slot reusable" true (A.alloc a 4096 <> None);
  check_bool "invariants" true (A.check_invariants a)

let test_alloc_coalescing () =
  let a = A.create ~size:(8 * 4096) () in
  let ps = List.init 8 (fun _ -> Option.get (A.alloc a 4096)) in
  (* free all: neighbours must coalesce back into one region *)
  List.iter (A.free a) ps;
  check_int "no live blocks" 0 (A.n_blocks a);
  check_bool "one big region again" true (A.alloc a (8 * 4096) <> None)

let test_alloc_double_free_rejected () =
  let a = A.create ~size:(1 lsl 16) () in
  let p = Option.get (A.alloc a 4096) in
  A.free a p;
  Alcotest.check_raises "double free"
    (A.Invalid_free { addr = p; reason = A.Double_free }) (fun () ->
      A.free a p);
  Alcotest.check_raises "never allocated"
    (A.Invalid_free { addr = 12288; reason = A.Never_allocated }) (fun () ->
      A.free a 12288)

(* ---- fpga_handle over a tiny SoC ---- *)

let mk_handle () =
  let design =
    Beethoven.Elaborate.elaborate
      (Kernels.Vecadd.config ~n_cores:2 ())
      Platform.Device.aws_f1
  in
  let soc =
    Beethoven.Soc.create design ~behaviors:(fun _ -> Kernels.Vecadd.behavior)
  in
  H.create soc

let test_handle_malloc_dma () =
  let h = mk_handle () in
  let p = H.malloc h 4096 in
  let host = H.host_bytes h p in
  Bytes.set_int32_le host 0 0xFEEDl;
  let done_in = ref false and done_out = ref false in
  H.copy_to_fpga h p ~on_done:(fun () -> done_in := true);
  Desim.Engine.run (H.engine h);
  check_bool "dma in completed" true !done_in;
  Alcotest.(check int32)
    "device memory holds the data" 0xFEEDl
    (Beethoven.Soc.read_u32 (H.soc h) p.H.rp_addr);
  Beethoven.Soc.write_u32 (H.soc h) (p.H.rp_addr + 4) 0xBEEFl;
  H.copy_from_fpga h p ~on_done:(fun () -> done_out := true);
  Desim.Engine.run (H.engine h);
  check_bool "dma out completed" true !done_out;
  Alcotest.(check int32)
    "host sees device writes" 0xBEEFl
    (Bytes.get_int32_le (H.host_bytes h p) 4);
  H.mfree h p;
  Alcotest.check_raises "stale pointer"
    (H.Stale_pointer { addr = p.H.rp_addr; bytes = p.H.rp_bytes }) (fun () ->
      ignore (H.host_bytes h p));
  Alcotest.check_raises "double mfree"
    (A.Invalid_free { addr = p.H.rp_addr; reason = A.Double_free }) (fun () ->
      H.mfree h p)

let test_handle_command_roundtrip () =
  let h = mk_handle () in
  let p_in = H.malloc h 1024 and p_out = H.malloc h 1024 in
  for i = 0 to 255 do
    Bytes.set_int32_le (H.host_bytes h p_in) (i * 4) (Int32.of_int i)
  done;
  let dma = ref false in
  H.copy_to_fpga h p_in ~on_done:(fun () -> dma := true);
  Desim.Engine.run (H.engine h);
  let handle =
    H.send h ~system:"VecAdd" ~core:1 ~cmd:Kernels.Vecadd.command
      ~args:
        [
          ("addend", 10L);
          ("vec_addr", Int64.of_int p_in.H.rp_addr);
          ("out_addr", Int64.of_int p_out.H.rp_addr);
          ("n_eles", 256L);
        ]
  in
  check_bool "not ready immediately" true (H.try_get handle = None);
  let resp = H.await h handle in
  Alcotest.(check int64) "response counts elements" 256L resp;
  Alcotest.(check int32)
    "element 100 incremented" 110l
    (Beethoven.Soc.read_u32 (H.soc h) (p_out.H.rp_addr + 400));
  (* each command beat and the response cross the command NoC once *)
  let design = Beethoven.Soc.design (H.soc h) in
  check_int "2 command beats + 1 response on the command NoC" 3
    (Noc.messages_sent design.Beethoven.Elaborate.cmd_noc)

let test_on_ready_callback () =
  let h = mk_handle () in
  let p = H.malloc h 256 in
  let got = ref (-1L) in
  let handle =
    H.send h ~system:"VecAdd" ~core:0 ~cmd:Kernels.Vecadd.command
      ~args:
        [
          ("addend", 1L);
          ("vec_addr", Int64.of_int p.H.rp_addr);
          ("out_addr", Int64.of_int p.H.rp_addr);
          ("n_eles", 16L);
        ]
  in
  H.on_settled handle (fun r -> got := Result.get_ok r);
  Desim.Engine.run (H.engine h);
  Alcotest.(check int64) "callback fired with value" 16L !got;
  (* late registration fires immediately *)
  let again = ref 0L in
  H.on_settled handle (fun r -> again := Result.get_ok r);
  Alcotest.(check int64) "late callback immediate" 16L !again

let test_server_contention () =
  (* N concurrent short commands serialize on the server: total busy
     time is proportional to operation count *)
  let h = mk_handle () in
  let p = H.malloc h 4096 in
  let hs =
    List.init 8 (fun i ->
        H.send h ~system:"VecAdd" ~core:(i mod 2) ~cmd:Kernels.Vecadd.command
          ~args:
            [
              ("addend", 1L);
              ("vec_addr", Int64.of_int p.H.rp_addr);
              ("out_addr", Int64.of_int p.H.rp_addr);
              ("n_eles", 4L);
            ])
  in
  ignore (H.await_all h hs);
  (* 8 commands x 2 beats + 8 response collections = 24 server ops *)
  check_int "server busy accounting" (24 * 1_500_000) (H.server_busy_ps h)

let test_embedded_kria_path () =
  (* on the embedded platform the allocator hands out hugepage-backed
     physical addresses and the full vecadd flow still verifies *)
  let expected, actual, _ =
    Kernels.Vecadd.run ~n_cores:2 ~n_eles:4096 ~platform:Platform.Device.kria ()
  in
  check_bool "kria end-to-end correct" true (expected = actual)

let test_embedded_addresses_are_hugepage_aligned () =
  let design =
    Beethoven.Elaborate.elaborate (Kernels.Vecadd.config ())
      Platform.Device.kria
  in
  let soc =
    Beethoven.Soc.create design ~behaviors:(fun _ -> Kernels.Vecadd.behavior)
  in
  let h = H.create soc in
  let p = H.malloc h 100_000 in
  check_int "2MB aligned physical base" 0 (p.H.rp_addr mod (2 * 1024 * 1024));
  H.mfree h p;
  (* the slot is reusable *)
  let p2 = H.malloc h 100_000 in
  check_bool "hugepage slot recycled" true (p2.H.rp_addr = p.H.rp_addr)

(* ---- prompt settlement around quarantine (cluster drain regression) --- *)

(* the prompt-settle contract is stated for fault-armed SoCs (the
   watchdog machinery owns the abort hooks), so build one: an empty
   plan injects nothing but arms the watchdogs *)
let mk_fault_handle () =
  let design =
    Beethoven.Elaborate.elaborate
      (Kernels.Vecadd.config ~n_cores:2 ())
      Platform.Device.aws_f1
  in
  let soc =
    Beethoven.Soc.create
      ~fault:(Fault.Injector.create Fault.Plan.none)
      design
      ~behaviors:(fun _ -> Kernels.Vecadd.behavior)
  in
  H.create soc

let send_vecadd h ~core p =
  H.send h ~system:"VecAdd" ~core ~cmd:Kernels.Vecadd.command
    ~args:
      [
        ("addend", 1L);
        ("vec_addr", Int64.of_int p.H.rp_addr);
        ("out_addr", Int64.of_int p.H.rp_addr);
        ("n_eles", 16L);
      ]

let test_quarantine_reroutes_inflight () =
  let h = mk_fault_handle () in
  let p = H.malloc h 256 in
  let doomed = send_vecadd h ~core:0 p in
  check_bool "pending before quarantine" true (H.try_collect doomed = H.Pending);
  (* the health monitor writes core 0 off while the command is in flight:
     it must reroute to core 1, not sit Pending until a watchdog *)
  H.quarantine_core h ~system_id:0 ~core_id:0 ~reason:"health monitor";
  Desim.Engine.run (H.engine h);
  (match H.try_collect doomed with
  | H.Done v -> Alcotest.(check int64) "rerouted and completed" 16L v
  | H.Pending -> Alcotest.fail "stayed pending across quarantine"
  | H.Failed m -> Alcotest.fail ("failed instead of rerouting: " ^ m))

let test_try_collect_prompt_fail_when_no_core_survives () =
  let h = mk_fault_handle () in
  let p = H.malloc h 256 in
  let doomed = send_vecadd h ~core:0 p in
  H.quarantine_core h ~system_id:0 ~core_id:1 ~reason:"health monitor";
  H.quarantine_core h ~system_id:0 ~core_id:0 ~reason:"health monitor";
  (* no survivor: the handle must settle Failed at the quarantine
     instant, with NO engine time — a draining dispatcher polls this *)
  (match H.try_collect doomed with
  | H.Failed _ -> ()
  | H.Pending -> Alcotest.fail "quarantine-doomed command stayed Pending"
  | H.Done _ -> Alcotest.fail "cannot complete on a quarantined system");
  (* and a fresh send to the written-off system settles at submission *)
  let late = send_vecadd h ~core:0 p in
  (match H.try_collect late with
  | H.Failed _ -> ()
  | _ -> Alcotest.fail "post-quarantine send did not fail promptly");
  let settled = ref false in
  H.on_settled late (fun r -> settled := Result.is_error r);
  check_bool "on_settled fires immediately with Error" true !settled

let test_ace_coherence_counted () =
  (* embedded platforms snoop on every fabric memory transaction *)
  let run platform =
    let design =
      Beethoven.Elaborate.elaborate (Kernels.Vecadd.config ()) platform
    in
    let soc =
      Beethoven.Soc.create design ~behaviors:(fun _ -> Kernels.Vecadd.behavior)
    in
    let h = H.create soc in
    let p = H.malloc h 4096 in
    ignore
      (H.await h
         (H.send h ~system:"VecAdd" ~core:0 ~cmd:Kernels.Vecadd.command
            ~args:
              [
                ("addend", 1L);
                ("vec_addr", Int64.of_int p.H.rp_addr);
                ("out_addr", Int64.of_int p.H.rp_addr);
                ("n_eles", 128L);
              ]));
    Beethoven.Soc.coherent_transactions soc
  in
  check_int "discrete platform: no snoops" 0 (run Platform.Device.aws_f1);
  check_bool "embedded platform: snoops counted" true
    (run Platform.Device.kria > 0)

(* ---- properties ---- *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb f)

let props =
  [
    prop "allocator invariants hold under random alloc/free"
      QCheck.(list_of_size Gen.(1 -- 80) (pair bool (1 -- 20_000)))
      (fun ops ->
        let a = A.create ~size:(1 lsl 20) () in
        let live = ref [] in
        List.iter
          (fun (do_alloc, n) ->
            if do_alloc || !live = [] then (
              match A.alloc a n with
              | Some p -> live := p :: !live
              | None -> ())
            else
              match !live with
              | p :: rest ->
                  A.free a p;
                  live := rest
              | [] -> ())
          ops;
        A.check_invariants a);
    prop "allocations never overlap"
      QCheck.(list_of_size Gen.(2 -- 40) (1 -- 30_000))
      (fun sizes ->
        let a = A.create ~size:(4 lsl 20) () in
        let blocks =
          List.filter_map
            (fun n -> Option.map (fun p -> (p, n)) (A.alloc a n))
            sizes
        in
        let sorted = List.sort compare blocks in
        let rec ok = function
          | (p1, n1) :: ((p2, _) :: _ as rest) ->
              p1 + n1 <= p2 && ok rest
          | _ -> true
        in
        ok sorted);
  ]

let () =
  Alcotest.run "runtime"
    [
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "exhaustion/reuse" `Quick
            test_alloc_exhaustion_and_reuse;
          Alcotest.test_case "coalescing" `Quick test_alloc_coalescing;
          Alcotest.test_case "double free" `Quick test_alloc_double_free_rejected;
        ] );
      ( "handle",
        [
          Alcotest.test_case "malloc + dma" `Quick test_handle_malloc_dma;
          Alcotest.test_case "command roundtrip" `Quick
            test_handle_command_roundtrip;
          Alcotest.test_case "on_ready" `Quick test_on_ready_callback;
          Alcotest.test_case "server contention" `Quick test_server_contention;
          Alcotest.test_case "embedded kria path" `Quick test_embedded_kria_path;
          Alcotest.test_case "hugepage alignment" `Quick
            test_embedded_addresses_are_hugepage_aligned;
          Alcotest.test_case "ace coherence" `Quick test_ace_coherence_counted;
          Alcotest.test_case "quarantine reroutes in-flight" `Quick
            test_quarantine_reroutes_inflight;
          Alcotest.test_case "try_collect fails promptly" `Quick
            test_try_collect_prompt_fail_when_no_core_survives;
        ] );
      ("properties", props);
    ]
