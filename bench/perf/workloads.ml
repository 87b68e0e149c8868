(* The benchmark's four workloads. Each builds its system from public
   calls, runs one unit of work per [step], and reads the libraries'
   public reports and counters to say what the unit did. Every workload
   runs on seeded inputs and must complete without a shed or failed
   request, so any failure is a regression. *)

module B = Beethoven
module H = Runtime.Handle
module T = Serve.Tenant

let us = 1_000_000 (* ps *)

(* What one unit did, in simulated terms. *)
type outcome = {
  attempted : int;  (** requests offered *)
  completed : int;
  failed : int;  (** shed + failed + bad responses *)
  sim_ps : int;  (** simulated time the unit advanced *)
  p99_us : float;
      (** worst tenant's p99 total latency (cumulative over the session
          for a cluster; the query's latency for rtl-a3) *)
  queue_p99_us : float;  (** worst tenant's p99 queue wait *)
  batches : int;  (** runtime-server occupancies for submissions *)
  batched : int;  (** commands submitted across them *)
  rtl_cycles : float;  (** fabric cycles of the attend command *)
  restore_s : float option;  (** host time of a cluster restore *)
  violations : string list;
  digest : string;  (** folded into sim_digest *)
}

let outcome =
  {
    attempted = 0;
    completed = 0;
    failed = 0;
    sim_ps = 0;
    p99_us = 0.;
    queue_p99_us = 0.;
    batches = 0;
    batched = 0;
    rtl_cycles = 0.;
    restore_s = None;
    violations = [];
    digest = "";
  }

(* Cumulative public counters, read before and after the timed units.
   A layer a workload cannot observe stays 0. *)
type counters = {
  busy_ps : int;  (** runtime-server busy time, summed over devices *)
  servers : int;  (** runtime servers that busy time is spread over *)
  noc_msgs : int;  (** command-NoC messages *)
  bursts : int;  (** DRAM bursts *)
  row_hits : int;
  conflicts : int;  (** DRAM bank conflicts *)
  axi_rd_p99_ns : float;  (** worst AXI port's p99 read latency *)
  quarantines : int;
  promotions : int;
  generations : int;  (** SoC boots over all cluster slots *)
}

let no_counters =
  {
    busy_ps = 0;
    servers = 1;
    noc_msgs = 0;
    bursts = 0;
    row_hits = 0;
    conflicts = 0;
    axi_rd_p99_ns = 0.;
    quarantines = 0;
    promotions = 0;
    generations = 0;
  }

type instance = {
  step : int -> outcome;  (** unit index; 0 is the untimed warm-up *)
  counters : unit -> counters;
  tracer : Trace.t option;  (** the simulated-time tracer of a traced set-up *)
}

type t = {
  name : string;
  why : string;
  units_per_s : float;
      (** timed units per [--seconds] of run length: a fixed count, so
          every commit runs the same work *)
  setup : seed:int -> traced:bool -> instance;
  system : Layers.system;  (** what the set-up probes rebuild *)
}

let soc_counters h =
  let soc = H.soc h in
  let d = B.Soc.dram soc in
  let p99 a =
    Option.value ~default:0.
      (Desim.Stats.quantile_opt (Axi.read_latency a) ~q:0.99)
  in
  {
    no_counters with
    busy_ps = H.server_busy_ps h;
    noc_msgs = Noc.messages_sent (B.Soc.design soc).B.Elaborate.cmd_noc;
    bursts = Dram.row_hits d + Dram.row_misses d;
    row_hits = Dram.row_hits d;
    conflicts = Dram.bank_conflicts d;
    axi_rd_p99_ns =
      Array.fold_left (fun m a -> Float.max m (p99 a)) 0. (B.Soc.axi_ports soc)
      /. 1000.;
  }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let worst_p99 f tenants =
  List.fold_left
    (fun a t ->
      match f t with Some p -> Float.max a p.Serve.ph_p99_us | None -> a)
    0. tenants

let tenant_totals (ts : Serve.tenant_report list) =
  ( sum (fun t -> t.Serve.tr_offered) ts,
    sum (fun t -> t.Serve.tr_completed) ts,
    sum
      (fun t ->
        t.Serve.tr_shed_queue + t.tr_shed_deadline + t.tr_shed_degraded
        + t.tr_failed + t.tr_bad_responses)
      ts )

let serve_system tenants =
  {
    Layers.config =
      B.Config.make ~name:"serve"
        (List.map
           (fun k -> Serve.system_of_kind k ~n_cores:4)
           (Serve.kinds_used tenants));
    platform = Platform.Device.aws_f1;
    memory_bytes = None;
    behaviors = Serve.behavior_of_system;
  }

(* One Serve.Session on aws_f1 (4 cores per system, batch 8, core cap 4,
   Wfq); each unit is one traffic phase. *)
let serve ~name ~why ~units_per_s ~phase_ps tenants =
  let setup ~seed ~traced =
    let tracer = if traced then Some (Trace.create ()) else None in
    let s =
      Meter.span ~layer:"serve" "session_create" (fun () ->
          Serve.Session.create ?tracer
            (Serve.config ~seed ~duration_ps:phase_ps ~tenants ())
            ())
    in
    let step _ =
      let t0 = Serve.Session.now s in
      let r =
        Meter.span ~layer:"serve" "run_phase" (fun () ->
            Serve.Session.run_phase s ~duration_ps:phase_ps)
      in
      let attempted, completed, failed = tenant_totals r.Serve.r_tenants in
      {
        outcome with
        attempted;
        completed;
        failed;
        sim_ps = Serve.Session.now s - t0;
        p99_us = worst_p99 (fun t -> t.Serve.tr_total) r.r_tenants;
        queue_p99_us = worst_p99 (fun t -> t.Serve.tr_queue) r.r_tenants;
        batches = r.r_batches;
        batched = r.r_batched_commands;
        violations = Serve.violations r;
        digest = Serve.digest r;
      }
    in
    {
      step;
      counters = (fun () -> soc_counters (Serve.Session.handle s));
      tracer;
    }
  in
  { name; why; units_per_s; setup; system = serve_system tenants }

let small_mix = [ Serve.Mix.memcpy ~bytes:512 (); Serve.Mix.vecadd ~bytes:256 () ]

let serve_small =
  serve ~name:"serve-small"
    ~why:
      "small requests, server saturated by closed-loop clients: dispatcher, \
       runtime server, command NoC and event loop do the work (Fig. 6 \
       contention)"
    ~units_per_s:20. ~phase_ps:(5000 * us)
    [
      T.make ~name:"s0" ~weight:1. ~clients:4 ~mix:small_mix
        ~load:(T.open_loop ~rate_rps:50_000. ())
        ();
      T.make ~name:"s1" ~weight:3. ~clients:4 ~mix:small_mix
        ~load:(T.closed_loop ~think_ps:0 ())
        ();
    ]

let serve_bulk =
  serve ~name:"serve-bulk"
    ~why:
      "64 KB memcpy, 16 KB vecadd and merge sort at light load: DRAM, AXI \
       and Reader/Writer do the work, the dispatcher idles"
    ~units_per_s:20. ~phase_ps:(1500 * us)
    (List.init 3 (fun i ->
         T.make ~name:(Printf.sprintf "b%d" i) ~clients:2
           ~mix:
             [
               Serve.Mix.memcpy ~bytes:(64 * 1024) ();
               Serve.Mix.vecadd ~bytes:(16 * 1024) ();
               Serve.Mix.sort ();
             ]
           ~load:(T.open_loop ~rate_rps:6_000. ())
           ()))

(* Four cluster slots (platforms cycled, 3 warm + 1 standby). Before unit
   i = 2 (mod 8) slot (i/8 mod 3) is killed; before i = 5 (mod 8) it is
   restored. *)
let fleet_failover =
  let tenants =
    List.init 4 (fun i ->
        T.make ~name:(Printf.sprintf "f%d" i) ~weight:(float_of_int (i + 1))
          ~clients:2
          ~mix:[ Serve.Mix.memcpy ~bytes:(8 * 1024) () ]
          ~load:(T.open_loop ~rate_rps:10_000. ())
          ())
  in
  let phase_ps = 500 * us in
  let setup ~seed ~traced =
    let tracer = if traced then Some (Trace.create ()) else None in
    let s =
      Meter.span ~layer:"cluster" "session_create" (fun () ->
          Cluster.Session.create ?tracer
            (Cluster.config ~seed ~duration_ps:phase_ps ~devices:4 ~warm:3
               ~tenants ())
            ())
    in
    let prev = ref (0, 0, 0) in
    let step i =
      let dev = i / 8 mod 3 in
      if i mod 8 = 2 then
        Meter.span ~layer:"cluster" "kill" (fun () ->
            Cluster.Session.kill s ~dev);
      let restore_s =
        if i mod 8 = 5 then
          Some
            (snd
               (Meter.timed (fun () ->
                    Meter.span ~layer:"cluster" "restore" (fun () ->
                        Cluster.Session.restore s ~dev))))
        else None
      in
      let t0 = Cluster.Session.now s in
      let r =
        Meter.span ~layer:"cluster" "run_phase" (fun () ->
            Cluster.Session.run_phase s ~duration_ps:phase_ps)
      in
      (* reports are cumulative over the session *)
      let ((a, c, f) as totals) = tenant_totals r.Cluster.c_tenants in
      let a0, c0, f0 = !prev in
      prev := totals;
      {
        outcome with
        attempted = a - a0;
        completed = c - c0;
        failed = f - f0;
        sim_ps = Cluster.Session.now s - t0;
        p99_us = worst_p99 (fun t -> t.Serve.tr_total) r.c_tenants;
        queue_p99_us = worst_p99 (fun t -> t.Serve.tr_queue) r.c_tenants;
        restore_s;
        violations = Cluster.violations r;
        digest = Cluster.digest r;
      }
    in
    let counters () =
      let r = Cluster.Session.snapshot s in
      let devs = r.Cluster.c_devices in
      {
        no_counters with
        busy_ps = sum (fun d -> d.Cluster.dr_busy_ps) devs;
        servers = List.length devs;
        quarantines = r.c_quarantines;
        promotions = r.c_promotions;
        generations = sum (fun d -> d.Cluster.dr_generations) devs;
      }
    in
    { step; counters; tracer }
  in
  {
    name = "fleet-failover";
    why =
      "4-slot cluster with a kill and a restore every 8 units: device boot \
       (128 MB of eagerly zeroed memory per SoC) and the lockstep \
       coordinator do the work";
    units_per_s = 10.;
    setup;
    system =
      {
        (serve_system tenants) with
        config =
          B.Config.make ~name:"dev0"
            [ Serve.system_of_kind Serve.Mix.Memcpy ~n_cores:2 ];
        memory_bytes = Some (128 * 1024 * 1024);
      };
  }

(* The A3 RTL core in an SoC built from public calls; K/V are loaded at
   set-up, and each unit DMAs one fresh seeded query in, runs attend
   (n_queries = 1), DMAs the result back and compares it bit for bit
   with A3.attend_fixed. *)
let rtl_a3 =
  let module A = Attention in
  let lanes = A.A3.dim in
  let setup ~seed ~traced =
    let platform = Platform.Device.aws_f1 in
    let design =
      Meter.span ~layer:"beethoven" "elaborate" (fun () ->
          B.Elaborate.elaborate (A.A3_rtl_core.config ()) platform)
    in
    let tracer = if traced then Some (Trace.create ()) else None in
    let soc =
      Meter.span ~layer:"beethoven" "soc_create" (fun () ->
          B.Soc.create ?tracer design ~behaviors:(fun _ ->
              A.A3_rtl_core.behavior))
    in
    let h =
      Meter.span ~layer:"runtime" "handle_create" (fun () -> H.create soc)
    in
    let engine = H.engine h in
    let rng = Fault.Rng.create ~seed:(Int64.of_int seed) in
    let row () = Array.init lanes (fun _ -> Fault.Rng.int rng ~bound:33 - 16) in
    let keys = Array.init A.A3.n_keys (fun _ -> row ()) in
    let values = Array.init A.A3.n_keys (fun _ -> row ()) in
    let put p rows =
      let buf = H.host_bytes h p in
      Array.iteri
        (fun r a ->
          Array.iteri
            (fun c v -> Bytes.set buf ((r * lanes) + c) (Char.chr (v land 0xff)))
            a)
        rows
    in
    let dma copy p =
      Meter.span ~layer:"runtime" "dma" (fun () ->
          let finished = ref false in
          copy h p ~on_done:(fun () -> finished := true);
          Desim.Engine.run engine;
          if not !finished then failwith "rtl-a3: DMA did not complete")
    in
    let await cmd args =
      Meter.span ~layer:"runtime" "await" (fun () ->
          ignore
            (H.await h
               (H.send h ~system:"A3RTL" ~core:0 ~cmd
                  ~args:(List.map (fun (k, v) -> (k, Int64.of_int v)) args))))
    in
    let pk = H.malloc h (A.A3.n_keys * 64) in
    let pv = H.malloc h (A.A3.n_keys * 64) in
    let pq = H.malloc h 64 in
    let po = H.malloc h 64 in
    put pk keys;
    put pv values;
    dma H.copy_to_fpga pk;
    dma H.copy_to_fpga pv;
    await A.Accel.load_kv_command
      [ ("k_addr", pk.H.rp_addr); ("v_addr", pv.H.rp_addr) ];
    let clock_ps = platform.Platform.Device.fabric_clock_ps in
    let step _ =
      let query = row () in
      put pq [| query |];
      let t0 = Desim.Engine.now engine in
      dma H.copy_to_fpga pq;
      let a0 = Desim.Engine.now engine in
      await A.A3_rtl_core.attend_command
        [ ("q_addr", pq.H.rp_addr); ("out_addr", po.H.rp_addr); ("n_queries", 1) ];
      let a1 = Desim.Engine.now engine in
      dma H.copy_from_fpga po;
      let sim_ps = Desim.Engine.now engine - t0 in
      let out = H.host_bytes h po in
      let got =
        Array.init lanes (fun c ->
            let v = Char.code (Bytes.get out c) in
            if v >= 128 then v - 256 else v)
      in
      let expect =
        Meter.span ~layer:"attention" "attend_fixed" (fun () ->
            A.A3.attend_fixed ~query ~keys ~values)
      in
      {
        outcome with
        attempted = 1;
        completed = 1;
        failed = (if got = expect then 0 else 1);
        sim_ps;
        p99_us = float_of_int sim_ps /. float_of_int us;
        rtl_cycles = float_of_int (a1 - a0) /. float_of_int clock_ps;
        violations =
          (if got = expect then []
           else [ "A3 output differs from A3.attend_fixed" ]);
        digest = Bytes.sub_string out 0 lanes ^ string_of_int sim_ps;
      }
    in
    { step; counters = (fun () -> soc_counters h); tracer }
  in
  {
    name = "rtl-a3";
    why =
      "one A3 attention query per unit on the 2748-node RTL core: the \
       compiled Hw simulator and Bits do the work, serve/cluster/DRAM do \
       none";
    units_per_s = 10.;
    setup;
    system =
      {
        Layers.config = A.A3_rtl_core.config ();
        platform = Platform.Device.aws_f1;
        memory_bytes = None;
        behaviors = (fun _ -> A.A3_rtl_core.behavior);
      };
  }

let all = [ serve_small; serve_bulk; fleet_failover; rtl_a3 ]
