(* The A3 case study: fixed-point pipeline numerics, stage behaviour, the
   multi-core accelerated run, and the Table III baselines. *)

module A3 = Attention.A3

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rand seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s

let random_head seed =
  let r = rand seed in
  let q8 () = (r () mod 33) - 16 in
  let mat () =
    Array.init A3.n_keys (fun _ -> Array.init A3.dim (fun _ -> q8 ()))
  in
  (Array.init A3.dim (fun _ -> q8 ()), mat (), mat ())

let test_quantize_roundtrip () =
  Alcotest.(check (float 1e-9)) "dequantize" 0.5 (A3.dequantize 8);
  Alcotest.(check (float 1e-9)) "int8 min is -8" (-8.0) (A3.dequantize (-128));
  Alcotest.(check (float 1e-9))
    "int8 max is 8 - 1/16" 7.9375 (A3.dequantize 127)

let test_exp_lut_monotone () =
  check_int "lut size" 256 (Array.length A3.exp_lut);
  check_int "exp(0) = 1.0 in Q1.15" 32768 A3.exp_lut.(0);
  let ok = ref true in
  for i = 1 to 255 do
    if A3.exp_lut.(i) > A3.exp_lut.(i - 1) then ok := false
  done;
  check_bool "monotone nonincreasing" true !ok;
  check_bool "tail near zero" true (A3.exp_lut.(255) < 4)

let test_uniform_keys_average_values () =
  (* identical keys -> uniform weights -> output = mean of values *)
  let query = Array.make A3.dim 4 in
  let keys = Array.make A3.n_keys (Array.make A3.dim 1) in
  let values =
    Array.init A3.n_keys (fun i -> Array.make A3.dim (if i mod 2 = 0 then 10 else 30))
  in
  let out = A3.attend_fixed ~query ~keys ~values in
  Array.iter (fun v -> check_bool "mean of 10 and 30" true (abs (v - 20) <= 1)) out

let test_dominant_key_selects_its_value () =
  (* one key matches the query strongly; its value dominates the output *)
  let query = Array.make A3.dim 16 in
  let keys =
    Array.init A3.n_keys (fun i ->
        if i = 77 then Array.make A3.dim 16 else Array.make A3.dim (-16))
  in
  let values =
    Array.init A3.n_keys (fun i ->
        if i = 77 then Array.make A3.dim 42 else Array.make A3.dim 0)
  in
  let out = A3.attend_fixed ~query ~keys ~values in
  Array.iter (fun v -> check_bool "selected value" true (abs (v - 42) <= 1)) out

let test_accuracy_vs_float () =
  List.iter
    (fun seed ->
      let query, keys, values = random_head seed in
      let fixed = A3.attend_fixed ~query ~keys ~values in
      let exact =
        A3.attend_float
          ~query:(Array.map A3.dequantize query)
          ~keys:(Array.map (Array.map A3.dequantize) keys)
          ~values:(Array.map (Array.map A3.dequantize) values)
      in
      let err = A3.mean_abs_error fixed exact in
      check_bool
        (Printf.sprintf "seed %d error %.4f < 1.5 quanta" seed err)
        true
        (err < 1.5 *. A3.operand_scale))
    [ 1; 2; 3; 4; 5 ]

let test_dimension_checks () =
  let query, keys, values = random_head 9 in
  Alcotest.check_raises "bad query" (Invalid_argument "A3: query dimension")
    (fun () ->
      ignore (A3.attend_fixed ~query:(Array.make 10 0) ~keys ~values));
  Alcotest.check_raises "bad rows" (Invalid_argument "A3: key/value row count")
    (fun () ->
      ignore
        (A3.attend_fixed ~query ~keys:(Array.sub keys 0 10) ~values))

let test_timing_constants () =
  (* the 1-core ASIC number of Table III follows from the issue interval *)
  check_int "issue interval" 340 A3.issue_interval_cycles;
  let asic = Attention.Baselines.asic_1core in
  check_bool "ASIC ~2.94M ops/s" true
    (Float.abs (asic.Attention.Baselines.throughput_ops -. 2.94e6) < 0.05e6)

let test_accel_small_run () =
  let r =
    Attention.Accel.run ~n_queries_per_core:24 ~n_cores:3
      ~platform:Platform.Device.aws_f1 ()
  in
  check_bool "verified bit-exact" true r.Attention.Accel.verified;
  check_int "all queries" (3 * 24) r.Attention.Accel.n_queries;
  check_bool "quantization error bounded" true
    (r.Attention.Accel.max_error < 2.0 *. A3.operand_scale);
  check_int "wall_ps" 45717807 r.Attention.Accel.wall_ps

let test_accel_throughput_scales () =
  let thr n =
    (Attention.Accel.run ~n_queries_per_core:120 ~n_cores:n
       ~platform:Platform.Device.aws_f1 ())
      .Attention.Accel.throughput_ops
  in
  let t1 = thr 1 and t4 = thr 4 in
  check_bool "4 cores >= 2.5x one core" true (t4 /. t1 > 2.5)

let test_auto_cores_is_23 () =
  check_int "the paper's 23-core design point" 23
    (Attention.Accel.auto_cores Platform.Device.aws_f1)

let test_baseline_rows () =
  let open Attention.Baselines in
  check_bool "cpu energy ~885 uJ" true
    (Float.abs (Option.get cpu.energy_per_op_uj -. 884.4) < 1.0);
  check_bool "gpu energy ~64 uJ" true
    (Float.abs (Option.get gpu.energy_per_op_uj -. 64.0) < 0.5);
  let f = fpga ~throughput_ops:16.0e6
      ~resources:(Platform.Resources.make ~lut:700_000 ~ff:340_000 ~bram:520 ~uram:580 ())
      ~freq_mhz:250.0
  in
  check_bool "fpga >> gpu energy efficiency" true
    (Option.get f.energy_per_op_uj < Option.get gpu.energy_per_op_uj /. 20.)

(* properties *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:50 ~name arb f)

let props =
  [
    prop "fixed outputs stay in int8 range" QCheck.(int_bound 10_000)
      (fun seed ->
        let query, keys, values = random_head seed in
        Array.for_all
          (fun v -> v >= -128 && v <= 127)
          (A3.attend_fixed ~query ~keys ~values));
    prop "attention output within value extremes (float)" QCheck.(int_bound 10_000)
      (fun seed ->
        let _, _, values = random_head seed in
        let query, keys, _ = random_head (seed + 1) in
        let out =
          A3.attend_float
            ~query:(Array.map A3.dequantize query)
            ~keys:(Array.map (Array.map A3.dequantize) keys)
            ~values:(Array.map (Array.map A3.dequantize) values)
        in
        let mn = ref infinity and mx = ref neg_infinity in
        Array.iter
          (Array.iter (fun v ->
               let f = A3.dequantize v in
               if f < !mn then mn := f;
               if f > !mx then mx := f))
          values;
        Array.for_all (fun v -> v >= !mn -. 1e-9 && v <= !mx +. 1e-9) out);
  ]

let test_rtl_core_in_soc () =
  let r =
    Attention.A3_rtl_core.run ~n_queries:2 ~platform:Platform.Device.aws_f1 ()
  in
  check_bool "netlist outputs bit-exact" true r.Attention.A3_rtl_core.verified;
  (* un-pipelined control: ~3 passes over 320 keys + 64 32-cycle divides *)
  check_bool "cycles/query in the expected band" true
    (r.Attention.A3_rtl_core.cycles_per_query > 3000.
    && r.Attention.A3_rtl_core.cycles_per_query < 6000.);
  Alcotest.(check (float 0.)) "cycles/query exact" 3791.5
    r.Attention.A3_rtl_core.cycles_per_query

let () =
  Alcotest.run "attention"
    [
      ( "pipeline",
        [
          Alcotest.test_case "quantize" `Quick test_quantize_roundtrip;
          Alcotest.test_case "exp lut" `Quick test_exp_lut_monotone;
          Alcotest.test_case "uniform average" `Quick
            test_uniform_keys_average_values;
          Alcotest.test_case "dominant key" `Quick
            test_dominant_key_selects_its_value;
          Alcotest.test_case "accuracy" `Quick test_accuracy_vs_float;
          Alcotest.test_case "dimension checks" `Quick test_dimension_checks;
          Alcotest.test_case "timing constants" `Quick test_timing_constants;
        ] );
      ( "accelerator",
        [
          Alcotest.test_case "small run" `Quick test_accel_small_run;
          Alcotest.test_case "scaling" `Slow test_accel_throughput_scales;
          Alcotest.test_case "23 cores" `Quick test_auto_cores_is_23;
          Alcotest.test_case "baselines" `Quick test_baseline_rows;
          Alcotest.test_case "full RTL core in SoC" `Slow test_rtl_core_in_soc;
        ] );
      ("properties", props);
    ]
