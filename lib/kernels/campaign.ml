(* Seeded fault campaign over the memcpy microbenchmark, driven through
   the FULL host path — malloc, host->device DMA, command submission,
   await, device->host DMA, data verification — so every fault class in
   the plan has a chance to fire: DMA faults on the copies, NoC
   drops/delays and core hangs on the command path, AXI errors and DRAM
   flips on the device-side memory traffic of the kernel itself. *)

module B = Beethoven
module Soc = B.Soc
module H = Runtime.Handle

let config ~n_cores =
  B.Config.make ~name:"memcpy_campaign" [ Memcpy.system ~n_cores ]

type result = {
  seed : int;
  iters : int;
  bytes : int;
  injected : int;
  recovered : int;
  unrecovered : int;
  pending : int;  (** lost-message faults never resolved either way *)
  quarantines : int;
  ecc_corrected : int;
  ecc_uncorrectable : int;
  command_timeouts : int;
  command_retries : int;
  failed_commands : int;  (** awaits that raised (recovery exhausted) *)
  corrupt_iters : int;  (** iterations whose round-tripped data mismatched *)
  wall_ps : int;
  bandwidth_gbs : float;  (** end-to-end: payload bytes / total sim time *)
  data_ok : bool;
  counters : string;  (** [Fault.Injector.counters_line] digest *)
  log : Fault.Log.entry list;
}

(* Deterministic per-iteration payload: campaigns must be reproducible
   down to the data, so the fill derives only from (seed, iter). *)
let fill_pattern buf ~seed ~iter =
  let rng = Fault.Rng.create ~seed:(Int64.of_int ((seed * 7919) + iter)) in
  for i = 0 to (Bytes.length buf / 8) - 1 do
    Bytes.set_int64_le buf (i * 8) (Fault.Rng.next rng)
  done

let run ?(bytes = 64 * 1024) ?(iters = 4) ?(n_cores = 2) ?tracer ~plan
    ~platform () =
  if bytes mod 8 <> 0 then invalid_arg "Campaign.run: bytes must be 8-aligned";
  let inj = Fault.Injector.create plan in
  let design = B.Elaborate.elaborate (config ~n_cores) platform in
  let soc =
    Soc.create ?tracer ~fault:inj design
      ~behaviors:(fun _ -> Memcpy.behavior)
  in
  let h = H.create ~poison_freed:true soc in
  let engine = Soc.engine soc in
  (* Step until [flag]. An unrecovered hang surfaces as a failure, never
     as a wedged simulator: the watchdog's retries are bounded, so the
     queue drains, and a zero-time cycle raises {!Desim.Engine.Livelock}. *)
  let wait flag =
    while not !flag do
      if not (Desim.Engine.step engine) then
        failwith "fault campaign: simulation drained mid-operation"
    done
  in
  let failed_commands = ref 0 in
  let corrupt_iters = ref 0 in
  for iter = 0 to iters - 1 do
    let src = H.malloc h bytes and dst = H.malloc h bytes in
    let expect = Bytes.create bytes in
    fill_pattern expect ~seed:plan.Fault.Plan.seed ~iter;
    Bytes.blit expect 0 (H.host_bytes h src) 0 bytes;
    let up = ref false in
    H.copy_to_fpga h src ~on_done:(fun () -> up := true);
    wait up;
    let completed =
      try
        let handle =
          H.send h ~system:"Memcpy" ~core:(iter mod n_cores)
            ~cmd:Memcpy.command
            ~args:
              [
                ("src", Int64.of_int src.H.rp_addr);
                ("dst", Int64.of_int dst.H.rp_addr);
                ("bytes", Int64.of_int bytes);
              ]
        in
        ignore (H.await h handle);
        true
      with Failure _ ->
        (* recovery exhausted: every core quarantined *)
        incr failed_commands;
        false
    in
    let down = ref false in
    H.copy_from_fpga h dst ~on_done:(fun () -> down := true);
    wait down;
    if not (completed && Bytes.equal expect (H.host_bytes h dst)) then
      incr corrupt_iters;
    H.mfree h src;
    H.mfree h dst
  done;
  (* Flush leftover timers (watchdog deadlines armed for commands that
     already resolved); a campaign must always leave a drainable queue. *)
  Desim.Engine.run engine;
  let wall_ps = Desim.Engine.now engine in
  let total_bytes = iters * bytes in
  let ecc = Fault.Injector.ecc inj in
  {
    seed = plan.Fault.Plan.seed;
    iters;
    bytes;
    injected = Fault.Injector.total_injected inj;
    recovered = Fault.Injector.total_recovered inj;
    unrecovered = Fault.Injector.total_unrecovered inj;
    pending = Fault.Injector.pending_lost inj;
    quarantines = Fault.Injector.quarantines inj;
    ecc_corrected = Fault.Ecc.corrected ecc;
    ecc_uncorrectable = Fault.Ecc.uncorrectable ecc;
    command_timeouts = H.command_timeouts h;
    command_retries = H.command_retries h;
    failed_commands = !failed_commands;
    corrupt_iters = !corrupt_iters;
    wall_ps;
    bandwidth_gbs =
      (if wall_ps = 0 then 0.
       else float_of_int total_bytes /. float_of_int wall_ps *. 1000.);
    data_ok = !corrupt_iters = 0;
    counters = Fault.Injector.counters_line inj;
    log = Fault.Injector.entries inj;
  }

let clean r = r.unrecovered = 0 && r.pending = 0 && r.data_ok

let render r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "fault campaign: seed=%d, %d x %d KB memcpy round-trips\n" r.seed r.iters
    (r.bytes / 1024);
  pf "  injected     %6d\n" r.injected;
  pf "  recovered    %6d  (ECC corrected %d, uncorrectable %d)\n" r.recovered
    r.ecc_corrected r.ecc_uncorrectable;
  pf "  unrecovered  %6d  (pending %d)\n" r.unrecovered r.pending;
  pf "  watchdog     %6d timeouts, %d resends, %d quarantine%s\n"
    r.command_timeouts r.command_retries r.quarantines
    (if r.quarantines = 1 then "" else "s");
  pf "  commands     %6d failed, %d corrupt round-trip%s\n" r.failed_commands
    r.corrupt_iters
    (if r.corrupt_iters = 1 then "" else "s");
  pf "  wall         %6.1f us end-to-end, %.2f GB/s effective\n"
    (float_of_int r.wall_ps /. 1e6)
    r.bandwidth_gbs;
  pf "  data         %s\n" (if r.data_ok then "VERIFIED" else "CORRUPTED");
  pf "  counters     %s\n" r.counters;
  Buffer.contents b

type curve_point = {
  cp_scale : float;
  cp_result : result;
  cp_relative : float;  (** throughput relative to the fault-free run *)
}

let degradation ?(seed = 42) ?(bytes = 32 * 1024) ?(iters = 2) ~platform () =
  let point scale =
    let plan =
      Fault.Plan.scale scale (Fault.Plan.default_recoverable ~seed ())
    in
    run ~plan ~bytes ~iters ~platform ()
  in
  let base = point 0.0 in
  List.map
    (fun scale ->
      let r = if scale = 0.0 then base else point scale in
      {
        cp_scale = scale;
        cp_result = r;
        cp_relative =
          (if base.bandwidth_gbs <= 0. then 0.
           else r.bandwidth_gbs /. base.bandwidth_gbs);
      })
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

let render_curve points =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%8s %10s %9s %9s %12s %9s %6s\n" "scale" "injected" "recovered"
    "unrecov" "GB/s" "relative" "data";
  List.iter
    (fun p ->
      let r = p.cp_result in
      pf "%8.2f %10d %9d %9d %12.2f %8.0f%% %6s\n" p.cp_scale r.injected
        r.recovered r.unrecovered r.bandwidth_gbs (100. *. p.cp_relative)
        (if r.data_ok then "ok" else "BAD"))
    points;
  Buffer.contents b
