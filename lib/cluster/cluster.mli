(** Fault-tolerant multi-device cluster serving.

    A host-level placement layer over {!Serve}'s multi-tenant workload
    and its {!Serve.Dispatch} core: N simulated devices (cycled
    {!Platform.Device} flavors), each a full SoC behind a
    {!Runtime.Handle} and one dispatch site with its own SFQ virtual
    clock. The whole fleet runs on one event queue, where each device's
    {!Desim.Engine} is a lane ({!Desim.Engine.join}): at each instant
    the host's events fire first, then each device's in slot order,
    then the agenda's (heartbeats, chaos, drain deadlines, replay
    backoffs), then the dispatch pump's, so cross-device cascades are
    byte-deterministic.

    Each tenant's resident working set lives on one home device, where
    all its requests dispatch. A seeded heartbeat monitor drives the
    per-device health state machine (healthy → suspect → quarantined on
    consecutive missed probes, back to healthy on a response while
    suspect); heartbeat loss and brownouts draw from each device's
    forked injector ({!Fault.Injector.fork}). A quarantined device is
    {e drained} and its tenants {e re-sharded} onto the least-loaded
    survivor; after the drain deadline every unacknowledged command is
    replayed there with bounded exponential backoff — at-least-once
    delivery with txn-id dedup, so no ack is lost and none counts twice.
    Killed devices freeze; restored ones boot fresh into the standby
    pool, promoted on sustained SLO violation. When capacity cannot
    cover the load, the lowest-weight tenants shed first
    ({!Serve.Shed_degradation}).

    The same seed, config and chaos schedule yield a byte-identical
    report. *)

module Health : sig
  type state =
    | Healthy
    | Suspect  (** missed probes, still serving — may recover *)
    | Quarantined  (** written off: draining, then frozen *)
    | Dead  (** killed or frozen; its lane is halted *)
    | Standby  (** warm pool: booted but not serving *)

  val name : state -> string
end

(** {1 Configuration} *)

type config = {
  cl_seed : int;
  cl_duration_ps : int;  (** clients generate arrivals in [0, duration) *)
  cl_tenants : Serve.Tenant.t list;
  cl_devices : int;  (** total device slots *)
  cl_warm : int;  (** slots initially serving; the rest are standby *)
}

val config :
  ?seed:int ->
  ?duration_ps:int ->
  ?devices:int ->
  ?warm:int ->
  tenants:Serve.Tenant.t list ->
  unit ->
  config
(** Defaults: seed 42, 2 ms, 2 devices all warm. The rest of the fleet
    is fixed: platforms [[aws_f1; u200; kria]] cycled over slots, 2
    cores per system, core cap 4, a heartbeat probe every 50 µs, suspect
    after 2 missed probes, quarantine after 4, a 150 µs drain window
    after quarantine, 3 replay retries at 20 µs base backoff, 64 KB
    resident set, promotion after 3 hot probes at 50% violations. A
    drive runs as long as its events do. Past the phase's horizon the
    heartbeat monitor fails it ([Failure], naming each tenant with
    queued requests, its queue length and home, and each device's
    in-flight count) once no request has settled for a bound derived
    from the config and these constants: the largest tenant deadline,
    plus 4 attempts of the device watchdog over every resend and core,
    4 missed probes and the drain deadline, plus the replay backoffs
    (about 38 ms at the defaults). *)

(** {1 Chaos schedule} *)

type chaos =
  | Kill of { at : int; dev : int }
      (** the device drops off the host link: its lane halts
          ({!Desim.Engine.halt}), so nothing in flight there settles *)
  | Restore of { at : int; dev : int }
      (** a fresh SoC is booted into the slot and joins the standby
          pool (promotion decides when it serves again). A restore that
          lands before the monitor quarantined the killed slot
          quarantines it first, so its tenants re-home or degrade. A
          restore of a slot that is neither killed nor dead does
          nothing. *)

(** {1 Results} *)

type device_report = {
  dr_name : string;  (** ["dev0"], ... *)
  dr_platform : string;
  dr_state : Health.state;  (** at end of run *)
  dr_generations : int;  (** SoC boots in this slot (restores add one) *)
  dr_dispatched : int;
  dr_completed : int;
  dr_busy_ps : int;  (** runtime-server busy time across generations *)
  dr_utilization : float;  (** busy / wall *)
  dr_transitions : (int * Health.state) list;
      (** chronological health transitions (time, new state) *)
  dr_injector : Fault.Injector.t;
      (** the slot's current-generation forked injector (every boot
          forks one) *)
}

type report = {
  c_seed : int;
  c_duration_ps : int;
  c_wall_ps : int;
  c_tenants : Serve.tenant_report list;
      (** cluster-wide per-tenant ledgers, including the
          [tr_shed_degraded] reason bucket *)
  c_devices : device_report list;
  c_placements : (string * int) list;  (** final tenant → device slot *)
  c_resharded : (string * int * int) list;
      (** chronological migrations: tenant, from slot, to slot *)
  c_quarantines : int;  (** device-level quarantine events *)
  c_promotions : int;  (** standby devices promoted into service *)
  c_replays : int;  (** unacked commands replayed after a drain *)
  c_replayed_ok : int;  (** replays that completed *)
  c_duplicates : int;
      (** duplicate acks dropped by txn-id dedup (a browned-out device
          completing a command that was already replayed elsewhere) *)
  c_lost_acked : int;  (** acked txns missing from tenant ledgers — 0 *)
}

val run :
  ?tracer:Trace.t ->
  ?plan:Fault.Plan.t ->
  ?chaos:chaos list ->
  config ->
  unit ->
  report
(** Boot the fleet, place the tenants, start the clients, and run the
    event queue until the horizon passed and every admitted request
    settled (completed, shed with a reason, or failed). [plan] is the
    root fault plan: each device generation gets a forked child
    injector ({!Fault.Injector.fork}, scope = slot + devices ×
    generation), so single-device campaigns are unaffected by the
    existence of siblings. [chaos] kills/restores devices mid-run.
    [tracer] records the [cluster.*] counters, health-transition
    instants and one span per completed request annotated with the
    serving device and txn; the device SoCs run untraced. This is one
    {!Session.run_phase} of [cl_duration_ps] on a fresh
    {!Session.create}, with [chaos] put on the agenda first. Raises
    [Invalid_argument] on a chaos device outside [[0, cl_devices)] or a
    negative chaos time. *)

(** {1 Sessions}

    A cluster session keeps the fleet alive across multiple traffic
    phases and exposes chaos as immediate actions, so a scenario can
    serve, kill a device mid-story, keep serving while the heartbeat
    monitor quarantines / drains / re-shards / replays, restore the
    slot, and assert on the cumulative ledgers. Phase [i] spawns its
    clients with stream salt [i] (phase 0 = the historical streams),
    and reports are {e cumulative} over the session — the ack/dedup
    ledgers are cluster-lifetime, so [c_lost_acked] remains the
    zero-lost-acks invariant across any phase/chaos interleaving. *)

module Session : sig
  type t

  val create :
    ?tracer:Trace.t ->
    ?plan:Fault.Plan.t ->
    config ->
    unit ->
    t
  (** Boot every device slot and place the tenants. No clients run and
      no heartbeat is armed until the first phase. *)

  val run_phase : t -> duration_ps:int -> report
  (** One traffic phase from the current cluster time: re-arm the
      heartbeat chain, spawn this phase's clients (open-loop rate curves
      are anchored at the phase start), and run the event queue until
      it is empty: every admitted request settled and all drains and
      replays resolved. Returns the cumulative session report. *)

  val sleep : t -> delta_ps:int -> unit
  (** Advance cluster time by [delta_ps] without new clients: the
      phase's event queue, run up to the horizon. Every event due by
      then fires (queued work dispatches, pending agenda work such as a
      drain deadline or a replay backoff runs); events past it stay
      pending for the next phase. *)

  val kill : t -> dev:int -> unit
  (** Halt the slot's lane now — the next phase's heartbeats notice,
      quarantine, drain and re-shard. *)

  val restore : t -> dev:int -> unit
  (** Quarantine the killed slot if the monitor has not yet (its tenants
      re-home or degrade), replay whatever the dead generation still
      held, then boot a fresh SoC generation into the slot (standby
      pool). Does nothing to a slot that is neither killed nor dead. *)

  val promote_standby : t -> bool
  (** Promote the first available standby device into service
      immediately; [false] when none is available. *)

  val snapshot : t -> report
  (** Cumulative session report without driving anything. *)

  val now : t -> int
end

val violations : report -> string list
(** Per-tenant conservation ({!Serve.Dispatch.tenant_violations}) plus
    exactly-once accounting: zero lost acked commands. *)

val conserved : report -> bool

val digest : report -> string
(** One-line machine-comparable summary (for cross-process determinism
    gates). *)

val render : report -> string
(** The cluster SLO report: per-device health timeline and utilization,
    per-tenant counters with the shed-reason breakdown, re-shard and
    replay ledger, and the four-phase latency quantiles. *)

(** {1 Degradation curve} *)

type loss_point = {
  lp_devices : int;  (** surviving warm devices *)
  lp_offered_rps : float;
  lp_achieved_rps : float;
  lp_completed : int;
  lp_shed : int;
  lp_p99_us : float;
}

val device_loss_curve :
  ?seed:int ->
  ?duration_ps:int ->
  ?rate_rps:float ->
  devices:int ->
  unit ->
  loss_point list
(** Fixed offered load served by [devices], then the same load after
    killing 1, 2, ... devices mid-run — the graceful-degradation curve
    (throughput retained and p99 inflation per device lost). *)

val render_loss_curve : loss_point list -> string
