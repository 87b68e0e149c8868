module B = Beethoven
module H = Runtime.Handle
module Mix = Serve.Mix
module Tenant = Serve.Tenant
module D = Serve.Dispatch

module Health = struct
  type state = Healthy | Suspect | Quarantined | Dead | Standby

  let name = function
    | Healthy -> "healthy"
    | Suspect -> "suspect"
    | Quarantined -> "quarantined"
    | Dead -> "dead"
    | Standby -> "standby"
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  cl_seed : int;
  cl_duration_ps : int;
  cl_tenants : Tenant.t list;
  cl_devices : int;
  cl_warm : int;
}

let config ?(seed = 42) ?(duration_ps = 2_000_000_000) ?(devices = 2)
    ?warm ~tenants () =
  if tenants = [] then invalid_arg "Cluster.config: no tenants";
  if devices < 1 then invalid_arg "Cluster.config: devices must be >= 1";
  let warm = match warm with Some w -> w | None -> devices in
  if warm < 1 || warm > devices then
    invalid_arg "Cluster.config: warm must be in [1, devices]";
  {
    cl_seed = seed;
    cl_duration_ps = duration_ps;
    cl_tenants = tenants;
    cl_devices = devices;
    cl_warm = warm;
  }

(* Fleet constants *)
let platforms =
  (* cycled over slots: the heterogeneous fleet mix *)
  [ Platform.Device.aws_f1; Platform.Device.u200; Platform.Device.kria ]

let heartbeat_ps = 50_000_000 (* health-probe period *)
let drain_ps = 150_000_000 (* in-flight settle window after quarantine *)
let n_cores = 2 (* cores per deployed system per device *)
let core_cap = 4 (* per-core outstanding-command bound *)
let suspect_misses = 2 (* consecutive missed probes -> suspect *)
let quarantine_misses = 4 (* consecutive missed probes -> quarantined *)
let replay_max_retries = 3 (* replay attempts per unacked command *)
let replay_backoff_ps = 20_000_000 (* base; attempt k waits base*2^k *)
let resident_bytes = 64 * 1024 (* per-tenant resident working set *)
let promote_strikes = 3 (* consecutive hot probes before a promotion *)
let slo_hot_frac = 0.5 (* hot window: violations/completions above this *)

type chaos =
  | Kill of { at : int; dev : int }
  | Restore of { at : int; dev : int }

(* ------------------------------------------------------------------ *)
(* Cluster state                                                      *)
(* ------------------------------------------------------------------ *)

type inflight = {
  il_req : D.req;
  il_gen : int;  (* device generation the command was sent to *)
}

type devstate = {
  mutable dv_site : D.site;
      (* slot, current handle, outstanding, per-device SFQ clock *)
  dv_platform : Platform.Device.t;
  mutable dv_gen : int;
  mutable dv_inj : Fault.Injector.t;
  mutable dv_state : Health.state;
  mutable dv_frozen : bool;  (* the SoC's lane is halted *)
  mutable dv_misses : int;  (* consecutive missed heartbeats *)
  mutable dv_brownout : int;  (* probes still inside a brownout window *)
  dv_inflight : (int, inflight) Hashtbl.t;  (* txn -> record *)
  mutable dv_dispatched : int;
  mutable dv_completed : int;
  mutable dv_busy_prev : int;  (* server busy accumulated by dead gens *)
  mutable dv_transitions : (int * Health.state) list;  (* reverse *)
}

(* The fleet's one event queue: the host engine (clients, host-side
   bookkeeping) at rank 0, device [slot]'s SoC at rank [slot + 1], the
   agenda after the devices and the dispatch pump last. *)
type cstate = {
  st_cfg : config;
  st_host : Desim.Engine.t;
  st_d : D.t;
      (* tenant ledgers; a ledger's site is its home slot, -1 = degraded.
         A request's admission id is its txn: the ack/dedup key. *)
  st_resident : H.remote_ptr option array;  (* per tenant, on its home *)
  st_devices : devstate array;
  st_plan : Fault.Plan.t;
  st_tracer : Trace.t option;
  st_acked : (int, unit) Hashtbl.t;
  mutable st_duplicates : int;
  mutable st_replays : int;
  mutable st_replayed_ok : int;
  mutable st_quarantines : int;
  mutable st_promotions : int;
  mutable st_resharded : (string * int * int) list;  (* reverse *)
  st_agenda : Desim.Engine.t;
      (* coordinator actions (heartbeats, chaos, drain deadlines, replay
         backoffs); same-time actions fire in scheduling order *)
  st_pump : Desim.Engine.t;
  mutable st_pump_armed : bool;  (* some device may have work to dispatch *)
  mutable st_win_completed : int;  (* completions since the last probe *)
  mutable st_win_viol : int;
  mutable st_strikes : int;  (* consecutive hot probe windows *)
  mutable st_horizon : int;  (* heartbeats self-reschedule until then *)
  mutable st_settled : int;  (* requests settled at the last progress *)
  mutable st_progress_at : int;  (* when [st_settled] last moved *)
  mutable st_served_ps : int;  (* accumulated traffic-phase time *)
  mutable st_phases : int;  (* phases started (next phase's salt) *)
}

let now st = Desim.Engine.now st.st_host
let tenants st = D.tenants st.st_d
let slot dv = dv.dv_site.D.si_slot
let handle dv = dv.dv_site.D.si_handle

let schedule_action st ~at act =
  Desim.Engine.schedule_at st.st_agenda ~time:at act

let bump st name =
  match st.st_tracer with None -> () | Some tr -> Trace.add tr name 1

let transition st dv state =
  if dv.dv_state <> state then begin
    dv.dv_state <- state;
    dv.dv_transitions <- (now st, state) :: dv.dv_transitions;
    match st.st_tracer with
    | None -> ()
    | Some tr ->
        Trace.instant tr ~now:(now st) ~track:"cluster/health" ~cat:"health"
          ~name:(Printf.sprintf "dev%d->%s" (slot dv) (Health.name state))
          ()
  end

(* ------------------------------------------------------------------ *)
(* Device boot                                                        *)
(* ------------------------------------------------------------------ *)

(* Boot one SoC generation into a slot as a fresh dispatch site. Each
   generation gets its own forked injector (scope = slot + devices *
   gen), so sibling devices and successive reboots draw from independent
   seeded streams. *)
let boot_soc cfg ~host ~plan ~slot ~gen ~platform =
  let kinds = Serve.kinds_used cfg.cl_tenants in
  let systems =
    List.map (fun k -> Serve.system_of_kind k ~n_cores:n_cores) kinds
  in
  let root = Fault.Injector.create plan in
  let inj =
    Fault.Injector.fork root ~scope:(slot + (cfg.cl_devices * gen))
  in
  let design =
    B.Elaborate.elaborate
      (B.Config.make ~name:(Printf.sprintf "dev%d" slot) systems)
      platform
  in
  let behaviors = Serve.behavior_of_system in
  (* 128 MB of device memory: embedded slots model a hugetlb pool of
     half their memory in 2 MB slots, and every outstanding request
     holds two hugepage-backed buffers — the default 64 MB pool (16
     slots) is exactly exhaustible at full core occupancy *)
  let soc =
    B.Soc.create ~memory_bytes:(128 * 1024 * 1024) ~fault:inj design
      ~behaviors
  in
  Desim.Engine.join (B.Soc.engine soc) ~into:host ~rank:(slot + 1);
  ( D.site ~slot ~handle:(H.create soc) ~n_sys:(List.length kinds)
      ~n_cores:n_cores ~cap:core_cap,
    inj )

let fresh_device cfg ~host ~plan ~slot ~state =
  let platform =
    List.nth platforms (slot mod List.length platforms)
  in
  let site, inj = boot_soc cfg ~host ~plan ~slot ~gen:0 ~platform in
  {
    dv_site = site;
    dv_platform = platform;
    dv_gen = 0;
    dv_inj = inj;
    dv_state = state;
    dv_frozen = false;
    dv_misses = 0;
    dv_brownout = 0;
    dv_inflight = Hashtbl.create 64;
    dv_dispatched = 0;
    dv_completed = 0;
    dv_busy_prev = 0;
    dv_transitions = [ (0, state) ];
  }

(* Reboot a killed slot: the old generation's server-busy total is
   banked, a fresh SoC (next generation, fresh forked injector) joins
   the standby pool and the slot's rank in the event queue. *)
let reboot st dv =
  let cfg = st.st_cfg in
  dv.dv_busy_prev <- dv.dv_busy_prev + H.server_busy_ps (handle dv);
  dv.dv_gen <- dv.dv_gen + 1;
  let site, inj =
    boot_soc cfg ~host:st.st_host ~plan:st.st_plan ~slot:(slot dv)
      ~gen:dv.dv_gen ~platform:dv.dv_platform
  in
  dv.dv_site <- site;
  dv.dv_inj <- inj;
  dv.dv_frozen <- false;
  dv.dv_misses <- 0;
  dv.dv_brownout <- 0;
  Hashtbl.reset dv.dv_inflight;
  transition st dv Health.Standby

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)
(* ------------------------------------------------------------------ *)

let is_active dv =
  (not dv.dv_frozen)
  && (dv.dv_state = Health.Healthy || dv.dv_state = Health.Suspect)

(* Least total homed tenant weight among active devices; ties to the
   lowest slot. *)
let pick_home st =
  let load = Array.make (Array.length st.st_devices) 0. in
  Array.iter
    (fun l ->
      if l.D.l_site >= 0 then
        load.(l.l_site) <- load.(l.l_site) +. l.l_t.Tenant.t_weight)
    (tenants st);
  let best = ref (-1) in
  Array.iter
    (fun dv ->
      if is_active dv then
        if !best < 0 || load.(slot dv) < load.(!best) then best := slot dv)
    st.st_devices;
  if !best >= 0 then Some !best else None

(* Free a tenant's resident working set on its home (pure allocator
   bookkeeping, even on a frozen device). *)
let drop_resident st l =
  (match st.st_resident.(l.D.l_index) with
  | Some ptr when l.l_site >= 0 ->
      H.mfree (handle st.st_devices.(l.l_site)) ptr
  | _ -> ());
  st.st_resident.(l.l_index) <- None

let degrade st l =
  bump st "cluster.degraded";
  drop_resident st l;
  l.D.l_site <- -1

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

(* Settle a request's outcome against the cluster ledgers. The txn id
   is the ack id: the first completion wins; any later completion of
   the same txn (a browned-out device finishing a command that was
   already replayed elsewhere) is dropped by the dedup check. *)
let ack st (r : D.req) rh ~replayed ~submitted ~finished ~ok =
  if Hashtbl.mem st.st_acked r.rq_id then begin
    st.st_duplicates <- st.st_duplicates + 1;
    bump st "cluster.duplicate_dropped";
    D.resume r
  end
  else begin
    Hashtbl.replace st.st_acked r.rq_id ();
    if replayed then st.st_replayed_ok <- st.st_replayed_ok + 1;
    st.st_win_completed <- st.st_win_completed + 1;
    if D.complete st.st_d r rh ~submitted ~finished ~ok then
      st.st_win_viol <- st.st_win_viol + 1
  end

(* Submit one request on its tenant's home device, on a core with room.
   Runs from the pump, an agenda action or a session call. *)
let rec submit st (r : D.req) ~core =
  let dv = st.st_devices.((D.ledger st.st_d r).l_site) in
  let gen = dv.dv_gen in
  D.reserve dv.dv_site r ~core;
  dv.dv_dispatched <- dv.dv_dispatched + 1;
  let submitted = now st in
  let replayed = r.rq_attempts > 0 in
  Hashtbl.replace dv.dv_inflight r.rq_id { il_req = r; il_gen = gen };
  D.send dv.dv_site r ~core (fun rh res ->
      (* Fires in this device's lane (or synchronously from the send);
         if the generation moved on, the registry entry belongs to a
         newer boot and stays. *)
      let finished = now st in
      (match Hashtbl.find_opt dv.dv_inflight r.rq_id with
      | Some il when il.il_gen = gen -> Hashtbl.remove dv.dv_inflight r.rq_id
      | _ -> ());
      (match res with
      | Ok ok ->
          dv.dv_completed <- dv.dv_completed + 1;
          (match st.st_tracer with
          | None -> ()
          | Some tr ->
              ignore
                (Trace.complete_span tr ~start:r.rq_arrival ~stop:finished
                   ~track:
                     (Printf.sprintf "cluster/%s"
                        (D.ledger st.st_d r).l_t.Tenant.t_name)
                   ~cat:"cluster" ~name:r.rq_class.Mix.k_label
                   ~args:
                     [
                       ("device", Trace.Int (slot dv));
                       ("txn", Trace.Int r.rq_id);
                     ]
                   ()));
          ack st r rh ~replayed ~submitted ~finished ~ok
      | Error _ ->
          (* The device-local watchdog exhausted recovery (every
             core quarantined). Retry elsewhere with backoff while
             the budget lasts — the same path a post-drain replay
             takes. *)
          retry_or_fail st r);
      arm_pump st)

(* Bounded-exponential-backoff replay of a command that either lost its
   device (drain deadline passed) or failed device-local recovery. *)
and retry_or_fail st (r : D.req) =
  if Hashtbl.mem st.st_acked r.rq_id then ()
  else if r.rq_attempts >= replay_max_retries then
    D.fail st.st_d r
  else begin
    let delay = replay_backoff_ps * (1 lsl r.rq_attempts) in
    r.rq_attempts <- r.rq_attempts + 1;
    st.st_replays <- st.st_replays + 1;
    bump st "cluster.replay";
    schedule_action st ~at:(now st + delay) (fun () -> replay st r)
  end

and replay st (r : D.req) =
  let home = (D.ledger st.st_d r).l_site in
  if Hashtbl.mem st.st_acked r.rq_id then ()
  else if home < 0 then D.fail st.st_d r
  else begin
    let dv = st.st_devices.(home) in
    let core =
      if is_active dv then D.choose_core dv.dv_site r.rq_sys else -1
    in
    (* home busy or gone: burn an attempt and back off again *)
    if core < 0 then retry_or_fail st r else submit st r ~core
  end

(* Start-time fair queueing across the tenants homed on one device,
   with the device's own virtual clock. *)
and pump_device st dv =
  if is_active dv then begin
    let continue_ = ref true in
    while !continue_ do
      match D.pick st.st_d dv.dv_site ~fifo:false ~same:(-1) with
      | None -> continue_ := false
      | Some (r, core) -> submit st r ~core
    done
  end

(* The pump lane's event. A send that settles at once re-arms the pump,
   which then pumps again before anything else happens. *)
and pump st =
  while st.st_pump_armed do
    st.st_pump_armed <- false;
    Array.iter (fun dv -> pump_device st dv) st.st_devices;
    (* a degraded tenant's queue still needs shedding even though no
       device pumps it *)
    Array.iter (fun l -> if l.D.l_site < 0 then D.shed st.st_d l) (tenants st)
  done

(* Whatever can make work dispatchable (an admission, a settled command,
   a re-home) arms the pump; arming an armed pump schedules nothing. *)
and arm_pump st =
  if not st.st_pump_armed then begin
    st.st_pump_armed <- true;
    Desim.Engine.schedule st.st_pump ~delay:0 (fun () -> pump st)
  end

(* Move a tenant's residence to a device and allocate its working set
   there — the data-locality cost a re-shard pays. *)
let rehome st l ~target =
  drop_resident st l;
  l.D.l_site <- target;
  st.st_resident.(l.l_index) <-
    Some (H.malloc (handle st.st_devices.(target)) resident_bytes);
  arm_pump st

let offer st l ~klass ~k =
  bump st "cluster.offered";
  let admitted = D.offer st.st_d l ~klass ~k in
  if admitted then arm_pump st;
  admitted

(* The single-SoC client streams, on the host engine: the offered load
   is identical for any placement, device count, or chaos schedule. *)
let start_clients ~salt ~t0 ~horizon st =
  D.start_clients st.st_d ~seed:st.st_cfg.cl_seed ~salt ~t0 ~horizon
    (offer st)

(* ------------------------------------------------------------------ *)
(* Health: quarantine, drain, re-shard, promotion                     *)
(* ------------------------------------------------------------------ *)

(* After the drain deadline: every still-unacknowledged command of the
   drained generation is replayed on its tenant's new home. Replays go
   through the same backoff budget as device-local failures. Then the
   device is frozen — a browned-out (alive) device gets no further
   engine time, so a late completion there can only arrive before this
   point and is deduped by the ack table. *)
let replay_unacked st dv =
  Hashtbl.fold (fun txn il acc -> (txn, il) :: acc) dv.dv_inflight []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (txn, il) ->
         Hashtbl.remove dv.dv_inflight txn;
         if not (Hashtbl.mem st.st_acked txn) then retry_or_fail st il.il_req)

let freeze dv =
  dv.dv_frozen <- true;
  Desim.Engine.halt (H.engine (handle dv))

let finish_drain st dv ~gen =
  if dv.dv_gen = gen then begin
    replay_unacked st dv;
    freeze dv;
    if dv.dv_state <> Health.Dead then transition st dv Health.Dead
  end

(* Quarantine a device: log it, stop admitting, re-home its tenants to
   the least-loaded survivor (or degrade, lowest weight first, when no
   survivor exists), and arm the drain deadline. *)
let quarantine_device st dv ~reason =
  if dv.dv_state <> Health.Quarantined && dv.dv_state <> Health.Dead then begin
    st.st_quarantines <- st.st_quarantines + 1;
    bump st "cluster.quarantine";
    Fault.Injector.log dv.dv_inj ~now:(now st) ~cls:Fault.Class.Device_offline
      ~kind:Fault.Log.Quarantined
      ~site:(Printf.sprintf "dev%d: %s" (slot dv) reason);
    transition st dv Health.Quarantined;
    let victims =
      Array.to_list (tenants st)
      |> List.filter (fun ts -> ts.D.l_site = slot dv)
    in
    List.iter
      (fun ts ->
        match pick_home st with
        | Some target ->
            st.st_resharded <-
              (ts.D.l_t.Tenant.t_name, slot dv, target) :: st.st_resharded;
            bump st "cluster.reshard";
            rehome st ts ~target
        | None -> ())
      victims;
    (* No survivor: shed load, lowest weight first, until the ones we
       cannot place are marked degraded. *)
    Array.to_list (tenants st)
    |> List.filter (fun ts -> ts.D.l_site = slot dv)
    |> List.sort (fun a b ->
           compare
             (a.D.l_t.Tenant.t_weight, a.D.l_index)
             (b.D.l_t.Tenant.t_weight, b.D.l_index))
    |> List.iter (fun ts -> degrade st ts);
    let gen = dv.dv_gen in
    schedule_action st
      ~at:(now st + drain_ps)
      (fun () -> finish_drain st dv ~gen)
  end

(* Promote a standby device into service. Re-admit degraded tenants
   (highest weight first) onto it; with none degraded, migrate the
   most-backlogged tenant so the fresh capacity actually serves. *)
let promote st dv =
  if dv.dv_state = Health.Standby && not dv.dv_frozen then begin
    st.st_promotions <- st.st_promotions + 1;
    bump st "cluster.promote";
    transition st dv Health.Healthy;
    let degraded =
      Array.to_list (tenants st)
      |> List.filter (fun ts -> ts.D.l_site < 0)
      |> List.sort (fun a b ->
             compare
               (b.D.l_t.Tenant.t_weight, a.D.l_index)
               (a.D.l_t.Tenant.t_weight, b.D.l_index))
    in
    match degraded with
    | _ :: _ ->
        List.iter
          (fun ts ->
            st.st_resharded <-
              (ts.D.l_t.Tenant.t_name, -1, slot dv) :: st.st_resharded;
            rehome st ts ~target:(slot dv))
          degraded
    | [] -> (
        let cand = ref None in
        Array.iter
          (fun ts ->
            let backlog = Queue.length ts.D.l_queue in
            if backlog > 0 && ts.D.l_site >= 0 && ts.D.l_site <> slot dv
            then
              match !cand with
              | Some (b, _) when b >= backlog -> ()
              | _ -> cand := Some (backlog, ts))
          (tenants st);
        match !cand with
        | Some (_, ts) ->
            st.st_resharded <-
              (ts.D.l_t.Tenant.t_name, ts.D.l_site, slot dv)
              :: st.st_resharded;
            bump st "cluster.reshard";
            rehome st ts ~target:(slot dv)
        | None -> ())
  end

let first_standby st =
  Array.to_list st.st_devices
  |> List.find_opt (fun dv -> dv.dv_state = Health.Standby && not dv.dv_frozen)

let cluster_busy st =
  D.queued st.st_d > 0
  || Array.exists (fun dv -> Hashtbl.length dv.dv_inflight > 0) st.st_devices

(* The stall guard. The heartbeat chain is the one event chain that
   re-arms on a fleet-wide condition ([cluster_busy]), so a request that
   can never settle (a tenant homed on a device nothing pumps) would keep
   it beating forever. Past the horizon, a drive fails once no request
   has settled (completed, failed or shed) for longer than a request's
   longest legitimate journey: it waits out its deadline in the queue,
   then each of its [replay_max_retries + 1] attempts may run the device
   watchdog over every resend and core, wait for the monitor to
   quarantine the device and for its drain deadline, and the replays
   back off in between (about 38 ms at the defaults). *)
let stall_bound st =
  let p = Fault.Policy.default in
  let watchdog =
    n_cores * p.Fault.Policy.cmd_timeout_ps
    * ((1 lsl (p.Fault.Policy.cmd_max_retries + 1)) - 1)
  in
  Array.fold_left
    (fun m l -> max m l.D.l_t.Tenant.t_deadline_ps)
    0 (tenants st)
  + (replay_max_retries + 1)
    * (watchdog + (quarantine_misses * heartbeat_ps) + drain_ps)
  + (replay_backoff_ps * ((1 lsl replay_max_retries) - 1))

let settled st =
  Array.fold_left
    (fun a l ->
      a + l.D.l_completed + l.l_failed + l.l_shed_queue + l.l_shed_deadline
      + l.l_shed_degraded)
    0 (tenants st)

let stall_report st =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let dev i =
    let dv = st.st_devices.(i) in
    Printf.sprintf "dev%d(%s)" i (Health.name dv.dv_state)
  in
  pf "Cluster: no request settled for %d ps past the horizon (t=%d ps):"
    (now st - st.st_progress_at) (now st);
  Array.iter
    (fun l ->
      if not (Queue.is_empty l.D.l_queue) then
        pf " tenant %s queued=%d home=%s;" l.l_t.Tenant.t_name
          (Queue.length l.l_queue)
          (if l.l_site < 0 then "degraded" else dev l.l_site))
    (tenants st);
  Array.iteri
    (fun i dv -> pf " %s inflight=%d" (dev i) (Hashtbl.length dv.dv_inflight))
    st.st_devices;
  Buffer.contents b

let check_progress st =
  let n = settled st in
  if n <> st.st_settled then begin
    st.st_settled <- n;
    st.st_progress_at <- now st
  end
  else if
    now st >= st.st_horizon && now st - st.st_progress_at > stall_bound st
  then failwith (stall_report st)

(* One heartbeat round: probe every serving device, advance the health
   state machine, then evaluate elastic promotion on the cluster-wide
   SLO window. All decisions draw from each device's forked stream, so
   the round is deterministic. *)
let rec heartbeat st =
  Array.iter
    (fun dv ->
      match dv.dv_state with
      | Health.Healthy | Health.Suspect ->
          let missed =
            if dv.dv_frozen then true
            else begin
              let inj = dv.dv_inj in
              if
                dv.dv_brownout = 0
                && Fault.Injector.decide inj Fault.Class.Device_brownout
              then begin
                dv.dv_brownout <-
                  1 + Fault.Injector.draw_int inj ~bound:quarantine_misses;
                Fault.Injector.log inj ~now:(now st)
                  ~cls:Fault.Class.Device_brownout ~kind:Fault.Log.Injected
                  ~site:
                    (Printf.sprintf "dev%d brownout %d probes" (slot dv)
                       dv.dv_brownout)
              end;
              if dv.dv_brownout > 0 then begin
                dv.dv_brownout <- dv.dv_brownout - 1;
                true
              end
              else if Fault.Injector.decide inj Fault.Class.Heartbeat_loss
              then begin
                Fault.Injector.log inj ~now:(now st)
                  ~cls:Fault.Class.Heartbeat_loss ~kind:Fault.Log.Injected
                  ~site:(Printf.sprintf "dev%d probe lost" (slot dv));
                true
              end
              else false
            end
          in
          if missed then begin
            dv.dv_misses <- dv.dv_misses + 1;
            bump st "cluster.hb_miss";
            if dv.dv_misses >= quarantine_misses then
              quarantine_device st dv
                ~reason:
                  (Printf.sprintf "%d consecutive missed heartbeats"
                     dv.dv_misses)
            else if dv.dv_misses >= suspect_misses then
              transition st dv Health.Suspect
          end
          else begin
            (* a response heals a merely-suspect device: transient
               heartbeat loss and short brownouts never quarantine *)
            if dv.dv_misses > 0 then begin
              dv.dv_misses <- 0;
              if dv.dv_state = Health.Suspect then begin
                transition st dv Health.Healthy;
                Fault.Injector.log dv.dv_inj ~now:(now st)
                  ~cls:Fault.Class.Heartbeat_loss ~kind:Fault.Log.Recovered
                  ~site:(Printf.sprintf "dev%d probes resumed" (slot dv))
              end
            end
          end
      | _ -> ())
    st.st_devices;
  (* Elastic promotion: sustained SLO violation (or stranded degraded
     tenants) pulls a standby device into service. *)
  let hot =
    st.st_win_completed > 0
    && float_of_int st.st_win_viol
       > slo_hot_frac *. float_of_int st.st_win_completed
  in
  st.st_win_completed <- 0;
  st.st_win_viol <- 0;
  if hot then st.st_strikes <- st.st_strikes + 1 else st.st_strikes <- 0;
  let stranded = Array.exists (fun ts -> ts.D.l_site < 0) (tenants st) in
  if st.st_strikes >= promote_strikes || stranded then begin
    match first_standby st with
    | Some dv ->
        promote st dv;
        st.st_strikes <- 0
    | None -> ()
  end;
  if now st < st.st_horizon || cluster_busy st then begin
    check_progress st;
    schedule_action st ~at:(now st + heartbeat_ps) (fun () -> heartbeat st)
  end

(* ------------------------------------------------------------------ *)
(* Chaos                                                              *)
(* ------------------------------------------------------------------ *)

let kill_device st dv =
  if not dv.dv_frozen then begin
    Fault.Injector.log dv.dv_inj ~now:(now st) ~cls:Fault.Class.Device_offline
      ~kind:Fault.Log.Injected
      ~site:(Printf.sprintf "dev%d offline" (slot dv));
    bump st "cluster.kill";
    (* the heartbeat monitor notices, quarantines, drains, and
       re-shards *)
    freeze dv;
    if dv.dv_state = Health.Standby then transition st dv Health.Dead
  end

let restore_device st dv =
  if dv.dv_frozen then begin
    bump st "cluster.restore";
    (* a restore can land before the monitor quarantined the slot:
       quarantine it now, the one path that re-homes or degrades its
       tenants (a no-op once quarantined or dead). It can also land
       before the drain deadline; the reboot bumps the generation
       (making the pending drain a no-op), so replay whatever the dead
       generation still held first. *)
    quarantine_device st dv ~reason:"restored before quarantine";
    replay_unacked st dv;
    reboot st dv
  end

(* Run the fleet's one event queue until it is empty, or up to [until]
   (events past it stay pending and the clock stops there). *)
let drive ?until st = Desim.Engine.run ?until st.st_host

(* ------------------------------------------------------------------ *)
(* Run + report                                                       *)
(* ------------------------------------------------------------------ *)

type device_report = {
  dr_name : string;
  dr_platform : string;
  dr_state : Health.state;
  dr_generations : int;
  dr_dispatched : int;
  dr_completed : int;
  dr_busy_ps : int;
  dr_utilization : float;
  dr_transitions : (int * Health.state) list;
  dr_injector : Fault.Injector.t;
}

type report = {
  c_seed : int;
  c_duration_ps : int;
  c_wall_ps : int;
  c_tenants : Serve.tenant_report list;
  c_devices : device_report list;
  c_placements : (string * int) list;
  c_resharded : (string * int * int) list;
  c_quarantines : int;
  c_promotions : int;
  c_replays : int;
  c_replayed_ok : int;
  c_duplicates : int;
  c_lost_acked : int;
}

(* Build the cluster state and boot every device slot. Shared by the
   one-shot [run] and by [Session.create]. *)
let mk_state ?tracer ?plan cfg =
  let plan =
    match plan with
    | Some p -> p
    | None -> { Fault.Plan.none with Fault.Plan.seed = cfg.cl_seed }
  in
  let host = Desim.Engine.create () in
  let lane rank =
    let e = Desim.Engine.create () in
    Desim.Engine.join e ~into:host ~rank;
    e
  in
  let devices =
    Array.init cfg.cl_devices (fun slot ->
        fresh_device cfg ~host ~plan ~slot
          ~state:
            (if slot < cfg.cl_warm then Health.Healthy else Health.Standby))
  in
  let st =
    {
      st_cfg = cfg;
      st_host = host;
      st_d =
        D.create ~engine:host ?tracer ~layer:"cluster" ~tenant_series:false
          ~kinds:(Serve.kinds_used cfg.cl_tenants)
          ~site:(-1) cfg.cl_tenants;
      st_resident = Array.make (List.length cfg.cl_tenants) None;
      st_devices = devices;
      st_plan = plan;
      st_tracer = tracer;
      st_acked = Hashtbl.create 1024;
      st_duplicates = 0;
      st_replays = 0;
      st_replayed_ok = 0;
      st_quarantines = 0;
      st_promotions = 0;
      st_resharded = [];
      st_agenda = lane (cfg.cl_devices + 1);
      st_pump = lane (cfg.cl_devices + 2);
      st_pump_armed = false;
      st_win_completed = 0;
      st_win_viol = 0;
      st_strikes = 0;
      st_horizon = 0;
      st_settled = 0;
      st_progress_at = 0;
      st_served_ps = 0;
      st_phases = 0;
    }
  in
  (* Initial placement: tenants in declaration order onto the least
     weight-loaded warm device — data locality established by giving
     each tenant its resident working set on its home. *)
  Array.iter
    (fun ts ->
      match pick_home st with
      | Some slot -> rehome st ts ~target:slot
      | None -> degrade st ts)
    (tenants st);
  st

(* Assemble the cumulative cluster report from live state. Pure
   observation (counters, series summaries) — nothing is drained,
   scheduled or drawn, so sessions can snapshot mid-scenario. *)
let mk_report st ~duration_ps =
  let cfg = st.st_cfg in
  let wall_ps = now st in
  let devices =
    Array.to_list
      (Array.map
         (fun dv ->
           let busy = dv.dv_busy_prev + H.server_busy_ps (handle dv) in
           {
             dr_name = Printf.sprintf "dev%d" (slot dv);
             dr_platform = dv.dv_platform.Platform.Device.name;
             dr_state = dv.dv_state;
             dr_generations = dv.dv_gen + 1;
             dr_dispatched = dv.dv_dispatched;
             dr_completed = dv.dv_completed;
             dr_busy_ps = busy;
             dr_utilization =
               (if wall_ps = 0 then 0.
                else float_of_int busy /. float_of_int wall_ps);
             dr_transitions = List.rev dv.dv_transitions;
             dr_injector = dv.dv_inj;
           })
         st.st_devices)
  in
  let completed_total =
    Array.fold_left (fun a l -> a + l.D.l_completed) 0 (tenants st)
  in
  {
    c_seed = cfg.cl_seed;
    c_duration_ps = duration_ps;
    c_wall_ps = wall_ps;
    c_tenants =
      Array.to_list
        (Array.map (D.tenant_report ~duration_ps ~wall_ps) (tenants st));
    c_devices = devices;
    c_placements =
      Array.to_list
        (Array.map
           (fun ts -> (ts.D.l_t.Tenant.t_name, ts.D.l_site))
           (tenants st));
    c_resharded = List.rev st.st_resharded;
    c_quarantines = st.st_quarantines;
    c_promotions = st.st_promotions;
    c_replays = st.st_replays;
    c_replayed_ok = st.st_replayed_ok;
    c_duplicates = st.st_duplicates;
    c_lost_acked = Hashtbl.length st.st_acked - completed_total;
  }

(* ------------------------------------------------------------------ *)
(* Sessions: the fleet outlives a single campaign                     *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = cstate

  let create ?tracer ?plan cfg () = mk_state ?tracer ?plan cfg

  let now = now

  let check_dev st name dev =
    if dev < 0 || dev >= Array.length st.st_devices then
      invalid_arg (Printf.sprintf "Cluster.Session.%s: device out of range" name)

  (* Immediate chaos actions: the executor performs these between
     drives (the cluster is settled), so they run directly rather than
     through the agenda. *)
  let kill st ~dev =
    check_dev st "kill" dev;
    kill_device st st.st_devices.(dev)

  let restore st ~dev =
    check_dev st "restore" dev;
    restore_device st st.st_devices.(dev)

  let promote_standby st =
    match first_standby st with
    | Some dv ->
        promote st dv;
        true
    | None -> false

  (* One traffic phase: re-arm the heartbeat monitor, spawn a fresh
     generation of clients (salt = phase index; phase 0 = the
     historical streams), and drive the fleet until its event queue is
     empty — admitted requests settled, drains and replays resolved.
     Reports are cumulative over the session (the dedup/ack ledgers are
     cluster-lifetime), so [c_lost_acked] stays meaningful across
     phases. *)
  let run_phase st ~duration_ps =
    if duration_ps < 1 then
      invalid_arg "Cluster.Session.run_phase: duration must be >= 1";
    let t0 = now st in
    st.st_horizon <- t0 + duration_ps;
    st.st_progress_at <- t0;
    st.st_served_ps <- st.st_served_ps + duration_ps;
    (* no heartbeat is pending between phases (a phase's drive runs the
       agenda dry and a sleep arms none), so the chain is re-armed here *)
    schedule_action st ~at:(t0 + heartbeat_ps) (fun () -> heartbeat st);
    start_clients ~salt:st.st_phases ~t0 ~horizon:(t0 + duration_ps) st;
    st.st_phases <- st.st_phases + 1;
    drive st;
    mk_report st ~duration_ps:(max 1 st.st_served_ps)

  (* Advance cluster time without traffic: the drive up to
     [now + delta]. Work pending past it settles in the next phase. *)
  let sleep st ~delta_ps =
    if delta_ps < 0 then
      invalid_arg "Cluster.Session.sleep: negative delta";
    drive st ~until:(now st + delta_ps)

  let snapshot st = mk_report st ~duration_ps:(max 1 st.st_served_ps)
end

(* One phase of a fresh session. The chaos schedule goes on the agenda
   before the phase arms the first heartbeat, so same-time actions keep
   their order. *)
let run ?tracer ?plan ?(chaos = []) cfg () =
  let st = Session.create ?tracer ?plan cfg () in
  List.iter
    (fun c ->
      let at, dev, act =
        match c with
        | Kill { at; dev } -> (at, dev, kill_device)
        | Restore { at; dev } -> (at, dev, restore_device)
      in
      if dev < 0 || dev >= cfg.cl_devices then
        invalid_arg "Cluster.run: chaos device out of range";
      if at < 0 then invalid_arg "Cluster.run: negative chaos time";
      schedule_action st ~at (fun () -> act st st.st_devices.(dev)))
    chaos;
  Session.run_phase st ~duration_ps:cfg.cl_duration_ps

(* ------------------------------------------------------------------ *)
(* Accounting checks, digest, render                                  *)
(* ------------------------------------------------------------------ *)

let violations r =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if r.c_lost_acked <> 0 then
    add "cluster: %d acked commands missing from tenant ledgers"
      r.c_lost_acked;
  if r.c_duplicates < 0 then add "cluster: negative duplicate count";
  List.concat_map D.tenant_violations r.c_tenants @ List.rev !out

let conserved r = violations r = []

let digest r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cluster seed=%d devs=%d wall=%d q=%d promo=%d replay=%d/%d dup=%d lost=%d"
    r.c_seed
    (List.length r.c_devices)
    r.c_wall_ps r.c_quarantines r.c_promotions r.c_replayed_ok r.c_replays
    r.c_duplicates r.c_lost_acked;
  List.iter
    (fun (d : device_report) ->
      pf " | %s st=%s gen=%d disp=%d ok=%d busy=%d" d.dr_name
        (Health.name d.dr_state) d.dr_generations d.dr_dispatched
        d.dr_completed d.dr_busy_ps)
    r.c_devices;
  List.iter (D.digest_tenant b ~bad:false) r.c_tenants;
  Buffer.contents b

let render r =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cluster campaign: seed=%d devices=%d duration=%.0f us wall=%.0f us\n"
    r.c_seed
    (List.length r.c_devices)
    (float_of_int r.c_duration_ps /. 1e6)
    (float_of_int r.c_wall_ps /. 1e6);
  pf
    "  health: %d quarantines, %d promotions; %d replays (%d completed), %d \
     duplicate acks dropped, %d lost acked\n"
    r.c_quarantines r.c_promotions r.c_replays r.c_replayed_ok r.c_duplicates
    r.c_lost_acked;
  List.iter
    (fun (d : device_report) ->
      pf "  %-5s %-32s %-11s gen=%d disp=%-6d ok=%-6d util=%5.1f%%\n"
        d.dr_name d.dr_platform
        (Health.name d.dr_state)
        d.dr_generations d.dr_dispatched d.dr_completed
        (100. *. d.dr_utilization);
      List.iter
        (fun (t, s) ->
          if t > 0 then
            pf "        @%-10.0f -> %s\n"
              (float_of_int t /. 1e6)
              (Health.name s))
        d.dr_transitions)
    r.c_devices;
  (match r.c_resharded with
  | [] -> ()
  | moves ->
      pf "  re-shards:\n";
      List.iter
        (fun (name, from, to_) ->
          if from < 0 then pf "    %s: degraded -> dev%d\n" name to_
          else pf "    %s: dev%d -> dev%d\n" name from to_)
        moves);
  pf "  placements:";
  List.iter
    (fun (name, slot) ->
      if slot < 0 then pf " %s=degraded" name else pf " %s=dev%d" name slot)
    r.c_placements;
  pf "\n";
  D.render_tenants b ~degraded:true r.c_tenants;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Degradation curve                                                  *)
(* ------------------------------------------------------------------ *)

type loss_point = {
  lp_devices : int;
  lp_offered_rps : float;
  lp_achieved_rps : float;
  lp_completed : int;
  lp_shed : int;
  lp_p99_us : float;
}

let device_loss_curve ?(seed = 42) ?(duration_ps = 1_500_000_000)
    ?(rate_rps = 120_000.) ~devices () =
  if devices < 1 then invalid_arg "Cluster.device_loss_curve: devices >= 1";
  (* one shard tenant per device slot, so the offered load actually
     spreads across the fleet and killing k slots concentrates it on
     the survivors *)
  let tenants =
    List.init devices (fun i ->
        Tenant.make
          ~name:(Printf.sprintf "shard%d" i)
          ~clients:4 ~queue_cap:128 ~slo_ps:300_000_000
          ~deadline_ps:600_000_000
          ~mix:[ Mix.memcpy ~bytes:(16 * 1024) () ]
          ~load:
            (Tenant.open_loop
               ~rate_rps:(rate_rps /. float_of_int (4 * devices))
               ())
          ())
  in
  let point ~kill =
    let cfg = config ~seed ~duration_ps ~devices ~tenants () in
    let chaos =
      List.init kill (fun i -> Kill { at = duration_ps / 3; dev = i })
    in
    let r = run ~chaos cfg () in
    let open Serve in
    let sumf f = List.fold_left (fun a t -> a +. f t) 0. r.c_tenants in
    let sumi f = List.fold_left (fun a t -> a + f t) 0 r.c_tenants in
    {
      lp_devices = devices - kill;
      lp_offered_rps = sumf (fun t -> t.tr_offered_rps);
      lp_achieved_rps = sumf (fun t -> t.tr_achieved_rps);
      lp_completed = sumi (fun t -> t.tr_completed);
      lp_shed =
        sumi (fun t ->
            t.tr_shed_queue + t.tr_shed_deadline + t.tr_shed_degraded);
      lp_p99_us =
        List.fold_left
          (fun a t ->
            match t.tr_total with
            | Some p -> Float.max a p.ph_p99_us
            | None -> a)
          0. r.c_tenants;
    }
  in
  List.init devices (fun kill -> point ~kill)

let render_loss_curve points =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%8s %12s %12s %9s %6s %9s\n" "devices" "offered/s" "achieved/s"
    "complete" "shed" "p99 us";
  List.iter
    (fun p ->
      pf "%8d %12.0f %12.0f %9d %6d %9.1f\n" p.lp_devices p.lp_offered_rps
        p.lp_achieved_rps p.lp_completed p.lp_shed p.lp_p99_us)
    points;
  Buffer.contents b
