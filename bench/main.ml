(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§III). Run with no arguments to print all experiments;
   pass experiment names (fig4 fig5 fig6 fig7 fig8 table1 table2 table3,
   or ablations) to run a subset; pass --bechamel to time the experiment
   kernels with Bechamel instead. *)

module D = Platform.Device
module MS = Kernels.Machsuite

let line = String.make 78 '-'

let header title note =
  Printf.printf "\n%s\n%s\n%s\n%s\n" line title note line

(* The F1 DDR-C controller the microbenchmark targets: one channel. *)
let f1_one_channel = { D.aws_f1 with D.dram = Dram.Config.ddr4_2400 }

(* MachSuite deployments run at the 125 MHz default clock (§III-B). *)
let f1_125mhz =
  {
    D.aws_f1 with
    D.fabric_clock_ps = 8000;
    D.noc = Noc.Params.default ~clock_ps:8000;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 4: Memcpy bandwidth                                            *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig. 4 — Memcpy microbenchmark bandwidth (AWS F1, one DDR4 channel)"
    "Paper shape: Pure-HDL ~ Beethoven ~ No-TLP (within ~7%); HLS clearly\n\
     lower (same-ID 16-beat bursts serialize at the controller); a 16-beat\n\
     Beethoven build shows no degradation.";
  let sizes_kb = [ 4; 16; 64; 256; 1024 ] in
  Printf.printf "%-22s" "GB/s at size:";
  List.iter (fun kb -> Printf.printf "%8dKB" kb) sizes_kb;
  print_newline ();
  List.iter
    (fun impl ->
      Printf.printf "%-22s" (Kernels.Memcpy.impl_name impl);
      List.iter
        (fun kb ->
          let r =
            Kernels.Memcpy.run ~impl ~bytes:(kb * 1024)
              ~platform:f1_one_channel ()
          in
          assert r.Kernels.Memcpy.verified;
          Printf.printf "%10.2f" r.Kernels.Memcpy.bandwidth_gbs)
        sizes_kb;
      print_newline ())
    Kernels.Memcpy.all_impls

(* ------------------------------------------------------------------ *)
(* Fig. 5: AXI transaction timelines, 4KB memcpy                       *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "Fig. 5 — AXI transaction timelines for a 4 KB memcpy"
    "Paper shape: HLS puts all four 16-beat bursts on one ID (serialized\n\
     read data, late writes); Beethoven spreads them over distinct IDs\n\
     (overlapped, writes finish early); Pure-HDL is a single 64-beat\n\
     transaction per direction.";
  let show impl =
    let tracer = Trace.create () in
    let r =
      Kernels.Memcpy.run ~tracer ~impl ~bytes:4096 ~platform:f1_one_channel ()
    in
    Printf.printf "\n(%s) — %.2f GB/s\n%s" (Kernels.Memcpy.impl_name impl)
      r.Kernels.Memcpy.bandwidth_gbs
      (Trace.axi_timeline tracer ~time_scale:40_000)
  in
  List.iter show
    [ Kernels.Memcpy.Hls; Kernels.Memcpy.Beethoven_16beat;
      Kernels.Memcpy.Pure_hdl ]

(* ------------------------------------------------------------------ *)
(* Table I: MachSuite benchmark selection                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I — MachSuite benchmarks selected for the evaluation" "";
  Printf.printf "%-11s %-38s %-14s %s\n" "Benchmark" "Description" "Data size"
    "Parallelism";
  List.iter
    (fun k ->
      let size =
        match k with
        | MS.Md_knn -> Printf.sprintf "N = %d, K = 32" (MS.data_size k)
        | _ -> Printf.sprintf "N = %d" (MS.data_size k)
      in
      Printf.printf "%-11s %-38s %-14s %s\n" (MS.name k) (MS.description k)
        size (MS.parallelism k))
    MS.all

(* ------------------------------------------------------------------ *)
(* Fig. 6: MachSuite speedups vs Vitis HLS                             *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Fig. 6 — MachSuite speedup over Vitis HLS (125 MHz deployments)"
    "Paper shape: Beethoven(Measured) >= 1x everywhere; NW ~2x from a\n\
     single core (loop-carried dependence defeats HLS/Spatial pragmas);\n\
     the ideal-vs-measured gap is largest for the shortest kernels\n\
     (runtime-server lock contention).";
  Printf.printf "%-11s %6s | %9s %9s %9s %9s | %11s %6s\n" "" "cores" "HLS"
    "Spatial" "B(Ideal)" "B(Meas.)" "1-core lat" "gap";
  List.iter
    (fun k ->
      let cores = MS.auto_cores k f1_125mhz in
      let single = MS.run k ~rounds:1 ~n_cores:1 ~platform:f1_125mhz () in
      assert single.MS.verified;
      let multi = MS.run k ~rounds:2 ~n_cores:cores ~platform:f1_125mhz () in
      assert multi.MS.verified;
      let hls = MS.hls_ops_per_sec k in
      let spatial = MS.spatial_ops_per_sec k in
      let single_ops =
        1.0 /. (float_of_int single.MS.single_latency_ps *. 1e-12)
      in
      let ideal = single_ops *. float_of_int cores in
      let measured = multi.MS.measured_ops_per_sec in
      Printf.printf
        "%-11s %6d | %9.2f %9.2f %9.2f %9.2f | %9.0fus %5.0f%%\n" (MS.name k)
        cores 1.0 (spatial /. hls) (ideal /. hls) (measured /. hls)
        (float_of_int single.MS.single_latency_ps /. 1e6)
        (100. *. (1. -. (measured /. ideal))))
    MS.all;
  Printf.printf
    "\n(speedups normalized to HLS = 1.0; 'gap' = ideal vs measured)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 7: the A3 pipeline                                             *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Fig. 7 — A3 approximate-attention pipeline (functional check)"
    "Three coarse stages with two global reductions, BERT geometry\n\
     (64-dim embeddings, 320 keys), 1-byte fixed-point operands.";
  Printf.printf
    "stage 1: query x key dot products   (1 key row/cycle, running max)\n\
     stage 2: exp LUT softmax            (256-entry Q4.4 -> Q1.15 table)\n\
     stage 3: weighted value reduction   (normalized, 1 row/cycle)\n\
     issue interval: %d cycles/query; latency: %d cycles\n\n"
    Attention.A3.issue_interval_cycles Attention.A3.pipeline_latency_cycles;
  let rand = Fault.lcg ~seed:7 in
  let q8 () = (rand () mod 33) - 16 in
  let errs =
    List.init 20 (fun _ ->
        let keys =
          Array.init Attention.A3.n_keys (fun _ ->
              Array.init Attention.A3.dim (fun _ -> q8 ()))
        in
        let values =
          Array.init Attention.A3.n_keys (fun _ ->
              Array.init Attention.A3.dim (fun _ -> q8 ()))
        in
        let query = Array.init Attention.A3.dim (fun _ -> q8 ()) in
        let fixed = Attention.A3.attend_fixed ~query ~keys ~values in
        let exact =
          Attention.A3.attend_float
            ~query:(Array.map Attention.A3.dequantize query)
            ~keys:(Array.map (Array.map Attention.A3.dequantize) keys)
            ~values:(Array.map (Array.map Attention.A3.dequantize) values)
        in
        Attention.A3.mean_abs_error fixed exact)
  in
  let mean =
    List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)
  in
  let worst = List.fold_left Float.max 0. errs in
  Printf.printf
    "fixed-point vs exact attention over 20 random heads:\n\
    \  mean abs error %.4f, worst %.4f (operand quantum %.4f)\n"
    mean worst Attention.A3.operand_scale

(* ------------------------------------------------------------------ *)
(* Fig. 8 + Table II: the 23-core A3 elaboration                       *)
(* ------------------------------------------------------------------ *)

let a3_design () =
  Beethoven.Elaborate.elaborate
    (Attention.Accel.config ~n_cores:(Attention.Accel.auto_cores D.aws_f1) ())
    D.aws_f1

let fig8 () =
  header "Fig. 8 — Floorplan of the multi-core A3 accelerator"
    "Paper shape: cores placed with per-SLR affinity; the shell's\n\
     footprint on SLR0/1 pushes cores toward SLR2.";
  let design = a3_design () in
  print_string (Beethoven.Elaborate.summary design)

let table2 () =
  header "Table II — Resource utilization of the multi-core A3 design"
    "Paper shape: interconnect is small and LUT-heavy; identical cores\n\
     get different BRAM/URAM mixes once an SLR crosses the 80% spill\n\
     threshold.";
  let design = a3_design () in
  print_string (Beethoven.Elaborate.resource_table design);
  let module F = Beethoven.Floorplan in
  let choice_str (c : Platform.Fpga_mem.choice) =
    match c.Platform.Fpga_mem.cell with
    | Platform.Fpga_mem.Bram ->
        Printf.sprintf "%d BRAM" c.Platform.Fpga_mem.count
    | Platform.Fpga_mem.Uram ->
        Printf.sprintf "%d URAM" c.Platform.Fpga_mem.count
    | Platform.Fpga_mem.Lutram -> "LUTRAM"
  in
  Printf.printf
    "\nPer-core Value-scratchpad cell mapping (mixed once an SLR fills):\n";
  List.iter
    (fun cp ->
      match
        List.find_opt (fun m -> m.F.mm_name = "values") cp.F.cp_memories
      with
      | Some m ->
          Printf.printf "  core %2d (SLR%d): %s\n" cp.F.cp_core cp.F.cp_slr
            (choice_str m.F.mm_choice)
      | None -> ())
    design.Beethoven.Elaborate.floorplan.F.places

(* ------------------------------------------------------------------ *)
(* Table III: throughput and energy                                    *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table III — A3 performance and energy vs CPU / GPU / ASIC"
    "Paper shape: Beethoven ~3.3x GPU throughput and ~34x lower\n\
     energy/op; the 1-core ASIC at 1 GHz does not beat the GPU.";
  let n_cores = Attention.Accel.auto_cores D.aws_f1 in
  let r =
    Attention.Accel.run ~n_queries_per_core:800 ~n_cores ~platform:D.aws_f1 ()
  in
  assert r.Attention.Accel.verified;
  let design = a3_design () in
  let fpga_row =
    Attention.Baselines.fpga ~throughput_ops:r.Attention.Accel.throughput_ops
      ~resources:design.Beethoven.Elaborate.beethoven_total
      ~freq_mhz:(D.fabric_freq_mhz D.aws_f1)
  in
  print_string
    (Attention.Baselines.table
       ~rows:
         [
           Attention.Baselines.cpu;
           Attention.Baselines.gpu;
           fpga_row;
           Attention.Baselines.asic_1core;
         ]);
  let gpu = Attention.Baselines.gpu in
  Printf.printf
    "\nBeethoven vs GPU: %.1fx throughput, %.0fx lower energy/op (%d cores, \
     max quantization error %.3f)\n"
    (fpga_row.Attention.Baselines.throughput_ops
    /. gpu.Attention.Baselines.throughput_ops)
    (Option.get gpu.Attention.Baselines.energy_per_op_uj
    /. Option.get fpga_row.Attention.Baselines.energy_per_op_uj)
    n_cores r.Attention.Accel.max_error

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures                                *)
(* ------------------------------------------------------------------ *)

let ablation_noc () =
  header "Ablation — interconnect elaboration knobs (fanout)"
    "The NoC fanout knob trades buffers (resources) against tree depth\n\
     (latency), the tuning surface §II-B exposes to platform developers.";
  let endpoints =
    List.init 92 (fun i -> { Noc.ep_id = i; ep_slr = i mod 3 })
  in
  Printf.printf "%-8s %9s %7s %12s\n" "fanout" "buffers" "depth"
    "latency(ps)";
  List.iter
    (fun fanout ->
      let prm =
        {
          (Noc.Params.default ~clock_ps:4000) with
          Noc.Params.max_fanout = fanout;
        }
      in
      let noc = Noc.build prm ~root_slr:0 ~endpoints in
      let worst =
        List.fold_left
          (fun acc ep -> max acc (Noc.latency_ps noc ~ep_id:ep.Noc.ep_id))
          0 endpoints
      in
      let depth =
        List.fold_left
          (fun acc ep -> max acc (Noc.depth_of noc ~ep_id:ep.Noc.ep_id))
          0 endpoints
      in
      Printf.printf "%-8d %9d %7d %12d\n" fanout (Noc.n_buffers noc) depth
        worst)
    [ 2; 4; 8; 16 ]

let ablation_spill () =
  header "Ablation — BRAM/URAM spill threshold"
    "Sweeping the 80% spill point of the memory mapper over the A3\n\
     configuration changes how many cores land on URAM.";
  List.iter
    (fun threshold ->
      let plat = { D.aws_f1 with D.memory_spill_threshold = threshold } in
      match
        Beethoven.Floorplan.place (Attention.Accel.config ~n_cores:23 ()) plat
      with
      | exception Failure _ ->
          Printf.printf "  %.0f%%: does not fit\n" (100. *. threshold)
      | fp ->
          let module F = Beethoven.Floorplan in
          let spilled =
            List.length
              (List.filter
                 (fun cp ->
                   List.exists
                     (fun m ->
                       m.F.mm_name = "values"
                       && m.F.mm_choice.Platform.Fpga_mem.cell
                          = Platform.Fpga_mem.Uram)
                     cp.F.cp_memories)
                 fp.F.places)
          in
          Printf.printf
            "  spill at %3.0f%%: %2d of 23 value scratchpads on URAM\n"
            (100. *. threshold) spilled)
    [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let ablation_prefetch () =
  header "Ablation — Reader prefetch depth (memcpy, 256 KB)"
    "More outstanding transactions hide DRAM latency until the bus\n\
     saturates — the Reader tuning tradeoff described in §II-B.";
  Printf.printf "%-12s %10s\n" "in-flight" "GB/s";
  List.iter
    (fun n ->
      let design =
        Beethoven.Elaborate.elaborate
          (Beethoven.Config.make ~name:"memcpy_ablate"
             [
               Beethoven.Config.system ~name:"Memcpy" ~n_cores:1
                 ~read_channels:
                   [
                     Beethoven.Config.read_channel ~name:"src" ~data_bytes:64
                       ~burst_beats:16 ~max_in_flight:n
                       ~buffer_beats:(16 * max 2 n) ();
                   ]
                 ~write_channels:
                   [
                     Beethoven.Config.write_channel ~name:"dst" ~data_bytes:64
                       ~burst_beats:16 ~max_in_flight:n
                       ~buffer_beats:(16 * max 2 n) ();
                   ]
                 ~commands:[ Kernels.Memcpy.command ] ();
             ])
          f1_one_channel
      in
      let soc =
        Beethoven.Soc.create design ~behaviors:(fun _ ->
            Kernels.Memcpy.behavior)
      in
      let handle = Runtime.Handle.create soc in
      let bytes = 256 * 1024 in
      let h =
        Runtime.Handle.send handle ~system:"Memcpy" ~core:0
          ~cmd:Kernels.Memcpy.command
          ~args:
            [
              ("src", 1048576L);
              ("dst", 4194304L);
              ("bytes", Int64.of_int bytes);
            ]
      in
      ignore (Runtime.Handle.await handle h);
      let dram = Beethoven.Soc.dram soc in
      let traffic = Dram.bytes_read dram + Dram.bytes_written dram in
      let bw = Dram.achieved_bandwidth_gbs dram in
      let wall = float_of_int traffic /. bw *. 1000. in
      Printf.printf "%-12d %10.2f\n" n (float_of_int bytes /. wall *. 1000.))
    [ 1; 2; 4; 8 ]

let ablation_a3_cores () =
  header "Ablation — A3 core-count scaling"
    "The scalability argument of §III-C: throughput vs core count on the\n\
     U200, with near-linear scaling until the device is full at 23.";
  Printf.printf "%-8s %14s %10s\n" "cores" "ops/s" "per-core";
  List.iter
    (fun n ->
      let r =
        Attention.Accel.run ~n_queries_per_core:400 ~n_cores:n
          ~platform:D.aws_f1 ()
      in
      assert r.Attention.Accel.verified;
      Printf.printf "%-8d %14.3e %10.3e\n" n r.Attention.Accel.throughput_ops
        (r.Attention.Accel.throughput_ops /. float_of_int n))
    [ 1; 2; 4; 8; 16; 23 ]

let ablation_refresh () =
  header "Ablation — DRAM refresh (tREFI/tRFC)"
    "Copy bandwidth with the refresh machinery on vs off — the ~4%\n\
     tax a cycle-accurate DRAM model charges that an idealized one hides.";
  List.iter
    (fun (label, cfg) ->
      let plat = { f1_one_channel with D.dram = cfg } in
      let r =
        Kernels.Memcpy.run ~impl:Kernels.Memcpy.Beethoven
          ~bytes:(1 lsl 20) ~platform:plat ()
      in
      Printf.printf "  %-18s %6.2f GB/s\n" label
        r.Kernels.Memcpy.bandwidth_gbs)
    [
      ("with refresh", Dram.Config.ddr4_2400);
      ("without refresh", { Dram.Config.ddr4_2400 with Dram.Config.trfc = 0 });
    ]

let ablation_extra_kernels () =
  header "Extension — four more MachSuite kernels on the composer"
    "Beyond the paper's Fig. 6 subset: FFT (strided butterflies), SpMV\n\
     (irregular reads), KMP (pure streaming), merge sort (log-pass RMW),\n\
     each verified end to end through the full stack.";
  Printf.printf "%-7s %6s | %12s %10s\n" "" "cores" "invocs/s" "verified";
  List.iter
    (fun k ->
      let r = Kernels.Machsuite_extra.run k ~n_cores:4 ~platform:f1_125mhz () in
      Printf.printf "%-7s %6d | %12.0f %10b\n"
        (Kernels.Machsuite_extra.name k)
        r.Kernels.Machsuite_extra.n_cores
        r.Kernels.Machsuite_extra.measured_ops_per_sec
        r.Kernels.Machsuite_extra.verified)
    Kernels.Machsuite_extra.all

let ablation_a3_rtl () =
  header "Extension — the A3 core as a real netlist in the composed SoC"
    "The un-pipelined RTL A3 (every output computed by the netlist through\n\
     the 64-lane dot unit, exp ROM, MAC lanes, and the sequential divider)\n\
     vs the pipelined transaction-level design point.";
  let r =
    Attention.A3_rtl_core.run ~n_queries:4 ~platform:D.aws_f1 ()
  in
  Printf.printf
    "  RTL core: outputs %s, %.0f cycles/query (un-pipelined)\n\
    \  TLM core: %d cycles/query issue interval (pipelined design point)\n"
    (if r.Attention.A3_rtl_core.verified then "bit-exact" else "WRONG")
    r.Attention.A3_rtl_core.cycles_per_query
    Attention.A3.issue_interval_cycles

let ablation_fault () =
  header "Fault campaign — memcpy under a scaled recoverable fault mix"
    "Seeded injection through the full host path (DMA, commands, device\n\
     memory). Expected shape: throughput degrades monotonically as rates\n\
     scale (retries + watchdog resends burn wall time) while the recovery\n\
     stack keeps every round-trip byte-exact; a hung core costs one\n\
     quarantine and a reroute, never a wedged simulation.";
  print_string
    (Kernels.Campaign.render_curve
       (Kernels.Campaign.degradation ~seed:42 ~bytes:(16 * 1024) ~iters:2
          ~platform:f1_one_channel ()));
  let hang_plan =
    Fault.Plan.with_hang ~after:1 ~system:0 ~core:0
      (Fault.Plan.default_recoverable ~seed:42 ())
  in
  let r =
    Kernels.Campaign.run ~plan:hang_plan ~bytes:(16 * 1024) ~iters:3
      ~n_cores:2 ~platform:f1_one_channel ()
  in
  Printf.printf "\nwith a core-0 hang injected at its first dispatch:\n%s"
    (Kernels.Campaign.render r)

let ablation_dse () =
  header "Ablation — design-space exploration"
    "Elaboration-time DSE: the floorplanner rejects infeasible core\n\
     counts before any tool run (vs Spatial's failing DSE points); the\n\
     channel tuner grid-searches the Reader/Writer knobs by simulation.";
  Printf.printf "A3 core-count sweep (metric: analytic queries/s):\n";
  let points =
    Beethoven.Dse.sweep_cores
      ~config_of:(fun ~n_cores -> Attention.Accel.config ~n_cores ())
      ~max_cores:26
      ~metric:(fun ~n_cores ->
        float_of_int n_cores *. 250.0e6
        /. float_of_int Attention.A3.issue_interval_cycles)
      D.aws_f1
  in
  let interesting =
    List.filter (fun p -> p.Beethoven.Dse.pt_cores mod 4 = 0 || not p.Beethoven.Dse.pt_fits
                          || p.Beethoven.Dse.pt_cores >= 22)
      points
  in
  print_string (Beethoven.Dse.render interesting);
  (match Beethoven.Dse.best points with
  | Some p -> Printf.printf "best feasible point: %d cores\n" p.Beethoven.Dse.pt_cores
  | None -> print_endline "no feasible point");
  Printf.printf "\nmemcpy channel tuning (top 5 of the grid):\n";
  Printf.printf "%-8s %10s %6s %10s\n" "burst" "in-flight" "tlp" "GB/s";
  Kernels.Memcpy.tune ~bytes:(128 * 1024) ~platform:f1_one_channel ()
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (fun tp ->
         Printf.printf "%-8d %10d %6b %10.2f\n"
           tp.Kernels.Memcpy.tp_burst_beats tp.Kernels.Memcpy.tp_in_flight
           tp.Kernels.Memcpy.tp_tlp tp.Kernels.Memcpy.tp_bandwidth_gbs)

let ablation_trace () =
  header "Extension — structured tracing of a 64 KB memcpy"
    "The lib/trace subsystem threaded through the whole stack: one host\n\
     command becomes a span tree (command -> server ops -> NoC hops ->\n\
     core execution -> Reader/Writer streams -> AXI bursts -> DRAM),\n\
     with performance counters and latency quantiles on the side. Same\n\
     seed, byte-identical sinks; tracer off, zero recording.";
  let run ?tracer () =
    Kernels.Memcpy.run ?tracer ~seed:11 ~impl:Kernels.Memcpy.Beethoven
      ~bytes:(64 * 1024) ~platform:f1_one_channel ()
  in
  let tracer = Trace.create () in
  let r = run ~tracer () in
  assert r.Kernels.Memcpy.verified;
  (match Trace.check tracer with
  | [] -> ()
  | problems ->
      List.iter (Printf.printf "trace check: %s\n") problems;
      failwith "trace well-formedness check failed");
  print_string (Trace.profile tracer);
  print_newline ();
  print_string (Trace.axi_timeline tracer);
  (* host-side cost of recording: the same simulation, tracer off vs on *)
  let time f =
    let t0 = Sys.time () in
    ignore (f ());
    Sys.time () -. t0
  in
  let t_off = time (fun () -> run ()) in
  let t_on = time (fun () -> run ~tracer:(Trace.create ()) ()) in
  Printf.printf
    "\nhost cost of recording: %.1f ms untraced, %.1f ms traced\n\
     (identical simulated timing either way: the tracer only observes)\n"
    (t_off *. 1000.) (t_on *. 1000.)

let ablation_serve () =
  header "Serving — throughput-latency saturation curve (memcpy, AWS F1)"
    "The lib/serve stack under an offered-load sweep: open-loop Poisson\n\
     clients issuing 16 KB memcpys at increasing rates. Expected shape:\n\
     achieved tracks offered until the runtime server and cores saturate,\n\
     then p99 explodes from queue-wait and admission control sheds the\n\
     excess — the Fig. 6 contention gap as a latency curve.";
  print_string
    (Serve.render_saturation
       (Serve.saturation ~seed:42 ~bytes:(16 * 1024) ~clients:8
          ~duration_ps:400_000_000 ~platform:f1_one_channel
          ~rates_rps:[ 50_000.; 100_000.; 200_000.; 400_000.; 800_000. ]
          ()));
  Printf.printf
    "\ntwo-tenant weighted fairness (both backlogged, weights 1:3):\n";
  let tenant name weight =
    Serve.Tenant.make ~name ~weight ~clients:6
      ~mix:[ Serve.Mix.memcpy ~bytes:(16 * 1024) () ]
      ~load:(Serve.Tenant.Closed_loop { think_ps = 0 })
      ()
  in
  let cfg =
    Serve.config ~seed:42 ~duration_ps:400_000_000 ~n_cores:2 ~core_cap:2
      ~tenants:[ tenant "light" 1.0; tenant "heavy" 3.0 ]
      ()
  in
  let r = Serve.run ~platform:f1_one_channel cfg () in
  assert (Serve.conserved r);
  List.iter
    (fun t ->
      Printf.printf "  %-6s weight %.0f: %5d completed, %8d KB served\n"
        t.Serve.tr_name t.Serve.tr_weight t.Serve.tr_completed
        (t.Serve.tr_bytes_served / 1024))
    r.Serve.r_tenants

(* ------------------------------------------------------------------ *)
(* sim-speed: interpreter (Hw.Cyclesim) vs compiled (Hw.Compile)       *)
(* throughput on the same designs. Both entries and the speedup ratio  *)
(* are archived to BENCH_simspeed.json so re-anchors can see the       *)
(* trajectory; the run fails if the compiled backend drops below 10x   *)
(* the interpreter on a3-rtl (the acceptance bar for the backend).     *)
(* ------------------------------------------------------------------ *)

let simspeed_designs () =
  let kernel_of (config : Beethoven.Config.t) =
    match
      List.filter_map
        (fun s -> s.Beethoven.Config.kernel_circuit)
        config.Beethoven.Config.systems
    with
    | c :: _ -> c
    | [] -> failwith "simspeed: design has no RTL-DSL kernel"
  in
  let deep =
    let open Hw.Signal in
    let x = input "x" 32 in
    let acc = ref x in
    for _ = 1 to 256 do
      acc := !acc +: x
    done;
    Hw.Circuit.create ~name:"adder-chain-256" ~outputs:[ ("o", !acc) ]
  in
  [
    ("a3-rtl", kernel_of (Attention.A3_rtl_core.config ~n_cores:1 ()));
    ("vecadd-rtl", kernel_of (Kernels.Vecadd_rtl.config ~n_cores:1 ()));
    ("adder-chain-256", deep);
  ]

let sim_speed () =
  header "sim-speed"
    "RTL simulation throughput, interpreter vs compiled backend (cycles/sec)";
  let cycles = 5_000 in
  (* seeded stimulus, generated before the clock starts: a fresh random
     value on every input on every cycle, so a timed cycle never finds
     the netlist idle *)
  let stimulus c =
    let st = Random.State.make [| 17 |] in
    Array.init cycles (fun _ ->
        List.map
          (fun (n, w) -> (n, Hw.Sim.random_bits st w))
          (Hw.Circuit.inputs c))
  in
  let drive sim inputs =
    List.iter (fun (n, v) -> Hw.Sim.set_input sim n v) inputs
  in
  let time_backend backend c stim =
    let sim = Hw.Sim.create ~backend c in
    (* settle once so create/first-evaluation cost is off the clock *)
    Hw.Sim.settle sim;
    let t0 = Sys.time () in
    Array.iter
      (fun inputs ->
        drive sim inputs;
        Hw.Sim.step sim)
      stim;
    let dt = Float.max (Sys.time () -. t0) 1e-6 in
    (dt, float_of_int cycles /. dt)
  in
  let rows =
    List.map
      (fun (name, c) ->
        let lv = Hw.Levelize.of_circuit c in
        let stim = stimulus c in
        (* short untimed lockstep pass over the first 100 cycles of the
           stimulus: the speedup is only meaningful if the two backends
           still agree on the benchmarked designs *)
        (match
           Hw.Sim.lockstep c ~cycles:100 ~stimulus:(fun n -> stim.(n - 1))
         with
        | Ok () -> ()
        | Error where ->
            failwith
              (Printf.sprintf "sim-speed: backends diverge on %s at %s" name
                 where));
        let dt_i, cps_i = time_backend Hw.Sim.Interpreter c stim in
        let dt_c, cps_c = time_backend Hw.Sim.Compiled c stim in
        let speedup = cps_c /. cps_i in
        Printf.printf
          "  %-18s %5d node(s), depth %3d: %10.0f -> %10.0f cycles/sec \
           (%.1fx)\n"
          name (Hw.Levelize.n_nodes lv) (Hw.Levelize.comb_depth lv) cps_i cps_c
          speedup;
        ( name,
          Hw.Levelize.n_nodes lv,
          Hw.Levelize.comb_depth lv,
          [ ("interpreter", dt_i, cps_i); ("compiled", dt_c, cps_c) ],
          speedup ))
      (simspeed_designs ())
  in
  let oc = open_out "BENCH_simspeed.json" in
  output_string oc "{\"experiment\":\"sim-speed\",\"designs\":[";
  List.iteri
    (fun i (name, nodes, depth, backends, speedup) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "{\"design\":\"%s\",\"nodes\":%d,\"comb_depth\":%d,\"cycles\":%d,\"backends\":["
        name nodes depth cycles;
      List.iteri
        (fun j (backend, dt, cps) ->
          if j > 0 then output_string oc ",";
          Printf.fprintf oc
            "{\"backend\":\"%s\",\"seconds\":%.6f,\"cycles_per_sec\":%.0f}"
            backend dt cps)
        backends;
      Printf.fprintf oc "],\"speedup\":%.2f}" speedup)
    rows;
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "  archived to BENCH_simspeed.json\n";
  let a3_speedup =
    List.find_map
      (fun (name, _, _, _, s) -> if name = "a3-rtl" then Some s else None)
      rows
  in
  match a3_speedup with
  | Some s when s < 10.0 ->
      failwith
        (Printf.sprintf
           "sim-speed: compiled backend is only %.1fx the interpreter on \
            a3-rtl (need >= 10x)"
           s)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* tune: the closed-loop autotuner. The Pareto front and the           *)
(* elaboration-cache hit/miss counts are archived to BENCH_tune.json;  *)
(* the run fails unless the final incumbent dominates the conservative *)
(* seed knobs on throughput or p99 without regressing the other (1%    *)
(* tolerance) — the acceptance bar for the search.                     *)
(* ------------------------------------------------------------------ *)

let tune () =
  header "tune"
    "Closed-loop autotuning: a measured one-knob search over the serving\n\
     SoC (cores, batching, per-core cap), pre-filtered\n\
     through the elaboration cache (keyed on each system's name and\n\
     kernel circuit), A/B-promoting only on paired rps wins under\n\
     byte-identical offered load.";
  let r = Tune.run ~seed:42 ~budget:6 () in
  print_string (Tune.render r);
  let oc = open_out "BENCH_tune.json" in
  output_string oc (Tune.pareto_json r);
  close_out oc;
  Printf.printf "  archived to BENCH_tune.json\n";
  (match r.Tune.r_violations with
  | [] -> ()
  | v :: _ -> failwith ("tune: accounting violation: " ^ v));
  let score c =
    match c.Tune.ca_outcome with
    | Tune.Evaluated { ev_score; _ } -> ev_score
    | Tune.Infeasible m -> failwith ("tune: unscored candidate: " ^ m)
  in
  let s0 =
    score (List.find (fun c -> c.Tune.ca_id = 0) r.Tune.r_candidates)
  in
  let sb = score r.Tune.r_best in
  let better_rps = sb.Tune.sc_rps > s0.Tune.sc_rps *. 1.01 in
  let better_p99 = sb.Tune.sc_p99_us < s0.Tune.sc_p99_us *. 0.99 in
  let no_worse_rps = sb.Tune.sc_rps >= s0.Tune.sc_rps *. 0.99 in
  let no_worse_p99 = sb.Tune.sc_p99_us <= s0.Tune.sc_p99_us *. 1.01 in
  Printf.printf
    "  tuned vs seed: rps %.1f -> %.1f (%+.1f%%), p99 %.3f -> %.3f us \
     (%+.1f%%)\n"
    s0.Tune.sc_rps sb.Tune.sc_rps
    (100. *. ((sb.Tune.sc_rps /. s0.Tune.sc_rps) -. 1.))
    s0.Tune.sc_p99_us sb.Tune.sc_p99_us
    (100. *. ((sb.Tune.sc_p99_us /. s0.Tune.sc_p99_us) -. 1.));
  if not ((better_rps && no_worse_p99) || (better_p99 && no_worse_rps)) then
    failwith
      "tune: the tuned configuration does not dominate the seed knobs \
       (need a >1% win on throughput or p99 without regressing the other)"

(* ------------------------------------------------------------------ *)
(* Bechamel timing of the experiment kernels                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let test_of name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"experiments"
      [
        test_of "fig4:memcpy-64KB" (fun () ->
            ignore
              (Kernels.Memcpy.run ~impl:Kernels.Memcpy.Beethoven
                 ~bytes:(64 * 1024) ~platform:f1_one_channel ()));
        test_of "fig5:trace-4KB" (fun () ->
            let tracer = Trace.create () in
            ignore
              (Kernels.Memcpy.run ~tracer ~impl:Kernels.Memcpy.Hls ~bytes:4096
                 ~platform:f1_one_channel ());
            ignore (Trace.axi_timeline tracer ~time_scale:40_000));
        test_of "fig6:nw-1core" (fun () ->
            ignore (MS.run MS.Nw ~rounds:1 ~n_cores:1 ~platform:f1_125mhz ()));
        test_of "fig7:a3-fixed-head" (fun () ->
            let q = Array.make Attention.A3.dim 3 in
            let rows =
              Array.make_matrix Attention.A3.n_keys Attention.A3.dim 2
            in
            ignore
              (Attention.A3.attend_fixed ~query:q ~keys:rows ~values:rows));
        test_of "fig8+table2:elaborate-a3" (fun () -> ignore (a3_design ()));
        test_of "table3:a3-2core-batch" (fun () ->
            ignore
              (Attention.Accel.run ~n_queries_per_core:16 ~n_cores:2
                 ~platform:D.aws_f1 ()));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ t ] -> Printf.printf "%-36s %14.0f ns/run\n" name t
      | _ -> Printf.printf "%-36s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("table1", table1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table2", table2);
    ("table3", table3);
    ("ablation-noc", ablation_noc);
    ("ablation-spill", ablation_spill);
    ("ablation-prefetch", ablation_prefetch);
    ("ablation-a3-cores", ablation_a3_cores);
    ("ablation-refresh", ablation_refresh);
    ("ablation-dse", ablation_dse);
    ("fault", ablation_fault);
    ("extra-kernels", ablation_extra_kernels);
    ("a3-rtl", ablation_a3_rtl);
    ("trace", ablation_trace);
    ("serve", ablation_serve);
    ("sim-speed", sim_speed);
    ("tune", tune);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--bechamel" ] -> bechamel ()
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" n
                (String.concat ", " (List.map fst experiments)))
        names
