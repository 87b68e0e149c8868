(* Evaluation kernels: the memcpy methodology comparison and the MachSuite
   references + accelerated runs. *)

module MS = Kernels.Machsuite
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let one_channel = { D.aws_f1 with D.dram = Dram.Config.ddr4_2400 }

(* ---- memcpy ---- *)

let test_memcpy_all_impls_correct () =
  List.iter
    (fun impl ->
      let r =
        Kernels.Memcpy.run ~impl ~bytes:16384 ~platform:one_channel ()
      in
      check_bool (Kernels.Memcpy.impl_name impl ^ " verified") true
        r.Kernels.Memcpy.verified;
      check_bool "bandwidth positive" true (r.Kernels.Memcpy.bandwidth_gbs > 1.0))
    Kernels.Memcpy.all_impls

let test_memcpy_paper_shape () =
  let bw impl =
    (Kernels.Memcpy.run ~impl ~bytes:(512 * 1024) ~platform:one_channel ())
      .Kernels.Memcpy.bandwidth_gbs
  in
  let hls = bw Kernels.Memcpy.Hls in
  let beethoven = bw Kernels.Memcpy.Beethoven in
  let no_tlp = bw Kernels.Memcpy.Beethoven_no_tlp in
  let pure_hdl = bw Kernels.Memcpy.Pure_hdl in
  let b16 = bw Kernels.Memcpy.Beethoven_16beat in
  (* paper: HLS clearly below the other three, which sit within ~7% *)
  check_bool "HLS slowest" true
    (hls < beethoven && hls < no_tlp && hls < pure_hdl);
  let close a b = Float.abs (a -. b) /. b < 0.10 in
  check_bool "Beethoven ~ No-TLP" true (close beethoven no_tlp);
  check_bool "Beethoven ~ Pure-HDL" true (close beethoven pure_hdl);
  (* paper: a 16-beat Beethoven shows no HLS-like degradation *)
  check_bool "16-beat TLP above HLS" true (b16 > hls)

let test_memcpy_trace_ids () =
  (* HLS keeps one read ID; Beethoven TLP uses several. The AXI timeline
     has one lane per (port, direction, ID) track. *)
  let read_lanes impl =
    let tracer = Trace.create () in
    ignore
      (Kernels.Memcpy.run ~tracer ~impl ~bytes:4096 ~platform:one_channel ());
    String.split_on_char '\n' (Trace.axi_timeline tracer)
    |> List.filter (fun lane ->
           String.length lane > 8 && String.sub lane 0 8 = "ddr0 rd ")
    |> List.length
  in
  check_int "HLS: one read id" 1 (read_lanes Kernels.Memcpy.Hls);
  check_bool "Beethoven 16-beat: several ids" true
    (read_lanes Kernels.Memcpy.Beethoven_16beat >= 4)

(* ---- MachSuite references (hand-checked small cases) ---- *)

let test_table1_metadata () =
  check_int "five kernels" 5 (List.length MS.all);
  check_int "gemm N" 256 (MS.data_size MS.Gemm);
  check_int "stencil3d N" 32 (MS.data_size MS.Stencil3d);
  Alcotest.(check string) "NW unparallelizable" "None" (MS.parallelism MS.Nw);
  check_int "gemm inner ops" (256 * 256 * 256) (MS.inner_ops MS.Gemm)

let test_baseline_models_sane () =
  List.iter
    (fun k ->
      check_bool "hls positive" true (MS.hls_ops_per_sec k > 0.);
      check_bool "spatial positive" true (MS.spatial_ops_per_sec k > 0.))
    MS.all;
  (* the single-core NW claim: Beethoven (1 cell/cycle at 125 MHz) is ~2x
     the HLS model *)
  let beethoven_nw = 125.0e6 /. float_of_int (MS.beethoven_cycles MS.Nw) in
  let ratio = beethoven_nw /. MS.hls_ops_per_sec MS.Nw in
  check_bool "NW single-core ~2x" true (ratio > 1.7 && ratio < 2.3)

let test_run_small_kernels_verified () =
  let p125 =
    { D.aws_f1 with D.fabric_clock_ps = 8000;
      noc = Noc.Params.default ~clock_ps:8000 }
  in
  List.iter
    (fun k ->
      let r = MS.run k ~rounds:1 ~n_cores:2 ~platform:p125 () in
      check_bool (MS.name k ^ " verified") true r.MS.verified;
      check_bool "throughput positive" true (r.MS.measured_ops_per_sec > 0.))
    [ MS.Nw; MS.Stencil2d; MS.Stencil3d; MS.Md_knn ]

let test_auto_cores_positive () =
  List.iter
    (fun k ->
      let n = MS.auto_cores k D.aws_f1 in
      check_bool (MS.name k ^ " fits at least 2 cores") true (n >= 2))
    MS.all

let test_channel_tuner () =
  let points = Kernels.Memcpy.tune ~bytes:(64 * 1024) ~platform:one_channel () in
  check_int "full grid" (4 * 3 * 2) (List.length points);
  (* sorted best-first *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Kernels.Memcpy.tp_bandwidth_gbs >= b.Kernels.Memcpy.tp_bandwidth_gbs
        && sorted rest
    | _ -> true
  in
  check_bool "sorted" true (sorted points);
  (* the tuner recovers the platform defaults: long bursts with TLP win *)
  let best = List.hd points in
  check_bool "best uses 32+ beat bursts" true
    (best.Kernels.Memcpy.tp_burst_beats >= 32);
  check_bool "best beats the worst by >5%" true
    (best.Kernels.Memcpy.tp_bandwidth_gbs
    > (List.nth points 23).Kernels.Memcpy.tp_bandwidth_gbs *. 1.05)

(* ---- extra kernels (framework extensions beyond Fig. 6) ---- *)

module MX = Kernels.Machsuite_extra

let test_fft_reference () =
  (* impulse at t=0 -> flat spectrum of ones *)
  let n = 16 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  MX.Ref.fft re im;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "flat re" 1.0 v) re;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "zero im" 0.0 v) im;
  (* DC signal -> all energy in bin 0 *)
  let re = Array.make n 2.0 and im = Array.make n 0.0 in
  MX.Ref.fft re im;
  Alcotest.(check (float 1e-9)) "bin0" (2.0 *. float_of_int n) re.(0);
  for i = 1 to n - 1 do
    Alcotest.(check (float 1e-9)) "other bins" 0.0 re.(i)
  done;
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Ref.fft: power-of-two complex input") (fun () ->
      MX.Ref.fft (Array.make 12 0.) (Array.make 12 0.))

let test_spmv_reference () =
  (* 3x3 identity: y = x *)
  let y =
    MX.Ref.spmv ~values:[| 1.; 1.; 1. |] ~col_idx:[| 0; 1; 2 |]
      ~row_ptr:[| 0; 1; 2; 3 |] ~x:[| 5.; -2.; 7. |]
  in
  Alcotest.(check (array (float 1e-9))) "identity" [| 5.; -2.; 7. |] y;
  (* [[2 0 1]; [0 0 0]; [0 3 0]] * [1;2;3] = [5; 0; 6] *)
  let y =
    MX.Ref.spmv ~values:[| 2.; 1.; 3. |] ~col_idx:[| 0; 2; 1 |]
      ~row_ptr:[| 0; 2; 2; 3 |] ~x:[| 1.; 2.; 3. |]
  in
  Alcotest.(check (array (float 1e-9))) "hand case" [| 5.; 0.; 6. |] y

let test_kmp_reference () =
  let kmp p t = MX.Ref.kmp ~pattern:(Bytes.of_string p) ~text:(Bytes.of_string t) in
  check_int "overlapping matches" 2 (kmp "ABAB" "ABABAB");
  check_int "no match" 0 (kmp "XYZ" "ABABAB");
  check_int "single char" 3 (kmp "A" "ABABA" - 0);
  check_int "full text" 1 (kmp "HELLO" "HELLO")

let test_merge_sort_reference () =
  Alcotest.(check (array int)) "sorts" [| 1; 2; 3; 5; 8 |]
    (MX.Ref.merge_sort [| 5; 3; 8; 1; 2 |]);
  Alcotest.(check (array int)) "stable on empty" [||] (MX.Ref.merge_sort [||])

let test_extra_kernels_end_to_end () =
  List.iter
    (fun k ->
      let r = MX.run k ~n_cores:2 ~platform:D.aws_f1 () in
      check_bool (MX.name k ^ " verified") true r.MX.verified)
    MX.all

let prop_sort =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"merge sort matches List.sort"
       QCheck.(list int)
       (fun l ->
         Array.to_list (MX.Ref.merge_sort (Array.of_list l))
         = List.sort compare l))

let prop_kmp =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"kmp matches the naive counter"
       QCheck.(pair (string_of_size Gen.(1 -- 4)) (string_of_size Gen.(0 -- 60)))
       (fun (p, t) ->
         QCheck.assume (String.length p > 0);
         let naive =
           let m = String.length p and n = String.length t in
           let c = ref 0 in
           for i = 0 to n - m do
             if String.sub t i m = p then incr c
           done;
           !c
         in
         MX.Ref.kmp ~pattern:(Bytes.of_string p) ~text:(Bytes.of_string t)
         = naive))

(* reference spot-checks with tiny hand-computable inputs go through the
   public run path indirectly; here we check structural properties *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:40 ~name arb f)

let props =
  [
    prop "memcpy bandwidth monotone-ish in prefetch depth"
      QCheck.(1 -- 3)
      (fun _ ->
        (* deterministic; just assert TLP >= no-TLP at 64KB *)
        let bw impl =
          (Kernels.Memcpy.run ~impl ~bytes:65536 ~platform:one_channel ())
            .Kernels.Memcpy.bandwidth_gbs
        in
        bw Kernels.Memcpy.Beethoven >= bw Kernels.Memcpy.Hls);
  ]

let () =
  Alcotest.run "kernels"
    [
      ( "memcpy",
        [
          Alcotest.test_case "all impls correct" `Quick
            test_memcpy_all_impls_correct;
          Alcotest.test_case "paper shape" `Quick test_memcpy_paper_shape;
          Alcotest.test_case "trace ids" `Quick test_memcpy_trace_ids;
          Alcotest.test_case "channel tuner" `Slow test_channel_tuner;
        ] );
      ( "machsuite",
        [
          Alcotest.test_case "table1 metadata" `Quick test_table1_metadata;
          Alcotest.test_case "baseline models" `Quick test_baseline_models_sane;
          Alcotest.test_case "small runs verified" `Slow
            test_run_small_kernels_verified;
          Alcotest.test_case "auto cores" `Quick test_auto_cores_positive;
        ] );
      ( "extra-kernels",
        [
          Alcotest.test_case "fft reference" `Quick test_fft_reference;
          Alcotest.test_case "spmv reference" `Quick test_spmv_reference;
          Alcotest.test_case "kmp reference" `Quick test_kmp_reference;
          Alcotest.test_case "sort reference" `Quick test_merge_sort_reference;
          Alcotest.test_case "end to end" `Slow test_extra_kernels_end_to_end;
        ] );
      ("properties", props @ [ prop_sort; prop_kmp ]);
    ]
