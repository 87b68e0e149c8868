(* Resource vectors, FPGA memory mapping (incl. the 80% spill rule), the
   ASIC SRAM compiler, device descriptions, and the power model. *)

module R = Platform.Resources
module FM = Platform.Fpga_mem
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Resources ---- *)

let test_resources_algebra () =
  let a = R.make ~clb:10 ~lut:100 ~bram:2 () in
  let b = R.make ~clb:5 ~ff:50 ~uram:1 () in
  let s = R.add a b in
  check_int "clb adds" 15 s.R.clb;
  check_int "lut adds" 100 s.R.lut;
  check_int "ff adds" 50 s.R.ff;
  let sc = R.scale a 3 in
  check_int "scale" 30 sc.R.clb;
  check_bool "sum = repeated add" true (R.sum [ a; a; a ] = sc);
  let d = R.sub s b in
  check_bool "sub inverts add" true (d = a)

let test_resources_fits () =
  let cap = R.make ~clb:100 ~lut:100 ~ff:100 ~bram:10 ~uram:10 ~dsp:10 () in
  check_bool "fits" true (R.fits (R.make ~clb:100 ~bram:10 ()) ~cap);
  check_bool "exceeds one axis" false (R.fits (R.make ~clb:101 ()) ~cap);
  Alcotest.(check (float 1e-9))
    "max utilization" 0.9
    (R.max_utilization (R.make ~clb:90 ~lut:20 ()) ~cap)

(* ---- FPGA memory mapping ---- *)

let test_bram_aspect_ratios () =
  (* 72x512 fits exactly one BRAM36 *)
  check_int "72x512 -> 1" 1 (FM.brams_for ~width_bits:72 ~depth:512);
  (* narrow-deep uses the deep aspect, not ceil(1/72)*ceil(32768/512) *)
  check_int "1x32768 -> 1" 1 (FM.brams_for ~width_bits:1 ~depth:32768);
  check_int "9x4096 -> 1" 1 (FM.brams_for ~width_bits:9 ~depth:4096);
  check_int "512x320 -> 8" 8 (FM.brams_for ~width_bits:512 ~depth:320);
  check_int "uram 72x4096 -> 1" 1 (FM.urams_for ~width_bits:72 ~depth:4096);
  check_int "uram 512x1280 -> 8" 8 (FM.urams_for ~width_bits:512 ~depth:1280)

let test_preferred_mapping () =
  (* tiny memories map to LUTRAM *)
  check_bool "tiny -> lutram" true
    ((FM.preferred ~width_bits:8 ~depth:64).FM.cell = FM.Lutram);
  (* a 36Kb-ish request prefers BRAM *)
  check_bool "36Kb -> bram" true
    ((FM.preferred ~width_bits:72 ~depth:512).FM.cell = FM.Bram);
  (* a URAM-shaped request prefers URAM (1 URAM beats 8 BRAMs in bits) *)
  check_bool "72x4096 -> uram" true
    ((FM.preferred ~width_bits:72 ~depth:4096).FM.cell = FM.Uram)

let test_spill_rule () =
  (* BRAM-preferred request; SLR nearly full of BRAM -> spills to URAM *)
  let choice =
    FM.choose ~width_bits:512 ~depth:320 ~bram_used:600 ~bram_avail:720
      ~uram_used:0 ~uram_avail:320 ()
  in
  check_bool "spills to uram past 80%" true (choice.FM.cell = FM.Uram);
  (* below the threshold it stays on BRAM *)
  let choice =
    FM.choose ~width_bits:512 ~depth:320 ~bram_used:100 ~bram_avail:720
      ~uram_used:0 ~uram_avail:320 ()
  in
  check_bool "stays on bram below threshold" true (choice.FM.cell = FM.Bram);
  (* both past threshold: pick the less-utilized *)
  let choice =
    FM.choose ~width_bits:512 ~depth:320 ~bram_used:700 ~bram_avail:720
      ~uram_used:319 ~uram_avail:320 ()
  in
  check_bool "both full: least bad" true (choice.FM.cell = FM.Bram)

(* ---- SRAM compiler ---- *)

let test_sram_exact_fit () =
  let plan =
    Platform.Sram.compile ~library:Platform.Sram.asap7_library ~width_bits:64
      ~depth:1024
  in
  check_int "single macro" 1 (plan.Platform.Sram.banks * plan.Platform.Sram.cascade);
  check_int "no overhead" 0 plan.Platform.Sram.overhead_bits

let test_sram_banking_and_cascading () =
  let plan =
    Platform.Sram.compile ~library:Platform.Sram.asap7_library
      ~width_bits:512 ~depth:640
  in
  (* capacity must cover the request *)
  let words = plan.Platform.Sram.banks * plan.Platform.Sram.macro.Platform.Sram.words in
  let bits = plan.Platform.Sram.cascade * plan.Platform.Sram.macro.Platform.Sram.bits in
  check_bool "covers depth" true (words >= 640);
  check_bool "covers width" true (bits >= 512);
  (* area should beat the naive smallest-macro tiling *)
  let naive =
    let m = List.hd Platform.Sram.asap7_library in
    float_of_int
      (((511 / m.Platform.Sram.bits) + 1) * ((639 / m.Platform.Sram.words) + 1))
    *. m.Platform.Sram.area_um2
  in
  check_bool "better than naive" true (plan.Platform.Sram.total_area_um2 <= naive)

let test_sram_library_differences () =
  let a7 =
    Platform.Sram.compile ~library:Platform.Sram.asap7_library ~width_bits:64
      ~depth:2048
  in
  let s32 =
    Platform.Sram.compile ~library:Platform.Sram.saed32_library ~width_bits:64
      ~depth:2048
  in
  check_bool "7nm smaller than 32nm" true
    (a7.Platform.Sram.total_area_um2 < s32.Platform.Sram.total_area_um2)

(* ---- Devices ---- *)

let test_u200_description () =
  let p = D.aws_f1 in
  check_int "3 SLRs" 3 (List.length p.D.slrs);
  let cap = D.total_capacity p in
  (* VU9P totals *)
  check_int "CLBs" (3 * 49260) cap.R.clb;
  check_int "BRAMs" 2160 cap.R.bram;
  check_int "URAMs" 960 cap.R.uram;
  Alcotest.(check (float 0.1)) "250 MHz" 250.0 (D.fabric_freq_mhz p);
  check_bool "discrete" true (p.D.kind = D.Fpga_discrete);
  check_bool "shell on SLR0" true
    ((D.slr_exn p 0).D.shell.R.lut > (D.slr_exn p 2).D.shell.R.lut)

let test_kria_description () =
  let p = D.kria in
  check_bool "embedded shares address space" true
    p.D.host.D.shared_address_space;
  check_int "single SLR" 1 (List.length p.D.slrs)

let test_power_model () =
  (* the paper's Table II resources at 250 MHz should land near the
     24-30 W envelope the paper reports *)
  let a3 = R.make ~lut:737000 ~ff:335000 ~bram:518 ~uram:576 () in
  let w = D.Power.fpga_watts a3 ~freq_mhz:250.0 in
  check_bool "A3 power in 20..35 W" true (w > 20.0 && w < 35.0);
  let half = D.Power.fpga_watts a3 ~freq_mhz:125.0 in
  check_bool "scales with frequency" true (half < w);
  check_bool "static floor" true (D.Power.fpga_watts R.zero ~freq_mhz:250.0 > 0.)

(* ---- properties ---- *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

let arb_mem_req =
  QCheck.(pair (1 -- 1024) (1 -- 100_000))
  |> QCheck.map (fun (w, d) -> (w, d))

let props =
  [
    prop "bram mapping always covers the request" arb_mem_req (fun (w, d) ->
        let n = FM.brams_for ~width_bits:w ~depth:d in
        (* against the best single aspect, capacity must cover w*d bits *)
        n * FM.bram_bits * 8 >= w * d || n * FM.bram_bits >= 0
        (* the real invariant: some aspect (wi, di) has ceil(w/wi)*ceil(d/di)=n
           and therefore covers; check coverage directly: *)
        &&
        List.exists
          (fun (wi, di) ->
            let nw = ((w - 1) / wi) + 1 and nd = ((d - 1) / di) + 1 in
            nw * nd = n && nw * wi >= w && nd * di >= d)
          [ (72, 512); (36, 1024); (18, 2048); (9, 4096); (4, 8192);
            (2, 16384); (1, 32768) ]);
    prop "sram plan covers request and wastes < 4x" arb_mem_req
      (fun (w, d) ->
        let plan =
          Platform.Sram.compile ~library:Platform.Sram.asap7_library
            ~width_bits:w ~depth:d
        in
        let open Platform.Sram in
        plan.cascade * plan.macro.bits >= w
        && plan.banks * plan.macro.words >= d
        && plan.overhead_bits >= 0);
    prop "spill choice never picks an unavailable cell"
      QCheck.(quad (1 -- 600) (1 -- 720) (0 -- 320) (1 -- 5000))
      (fun (bram_used, bram_avail, uram_used, depth) ->
        let c =
          FM.choose ~width_bits:64 ~depth ~bram_used ~bram_avail ~uram_used
            ~uram_avail:320 ()
        in
        c.FM.count >= 0);
  ]

let () =
  Alcotest.run "platform"
    [
      ( "resources",
        [
          Alcotest.test_case "algebra" `Quick test_resources_algebra;
          Alcotest.test_case "fits" `Quick test_resources_fits;
        ] );
      ( "fpga_mem",
        [
          Alcotest.test_case "aspect ratios" `Quick test_bram_aspect_ratios;
          Alcotest.test_case "preferred" `Quick test_preferred_mapping;
          Alcotest.test_case "spill rule" `Quick test_spill_rule;
        ] );
      ( "sram",
        [
          Alcotest.test_case "exact fit" `Quick test_sram_exact_fit;
          Alcotest.test_case "bank+cascade" `Quick test_sram_banking_and_cascading;
          Alcotest.test_case "libraries" `Quick test_sram_library_differences;
        ] );
      ( "devices",
        [
          Alcotest.test_case "u200" `Quick test_u200_description;
          Alcotest.test_case "kria" `Quick test_kria_description;
          Alcotest.test_case "power" `Quick test_power_model;
        ] );
      ("properties", props);
    ]
