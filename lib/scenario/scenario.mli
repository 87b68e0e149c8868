(** Declarative, seeded, multi-phase workload scenarios.

    A scenario is a plain OCaml value: a graph of nodes carrying
    {e actions} (serve a traffic phase, ramp the open-loop rate along a
    piecewise curve, arm a core hang mid-run, kill / restore / promote a
    cluster device, sleep, checkpoint), {e conditions} over the recorded
    results (latency-quantile thresholds, shed counts, health-state
    predicates, cluster counters), bounded {e loops}, and {e saved
    variables} threaded through an environment. A deterministic executor
    runs the graph against either a single-device {!Serve.Session} or a
    {!Cluster.Session} fleet and records a per-node transcript — node
    id, entry/exit simulated time, bound variables, verdict —
    byte-identical for a fixed seed ({!transcript_json}).

    This is the layer that turns the serving / cluster / fault stacks
    into executable regression stories: "ramp to peak, hang a core,
    assert the watchdog quarantined it and the tail recovered" is a
    value, re-run and byte-compared in CI ({!bundled}). *)

module Mix = Serve.Mix
module Tenant = Serve.Tenant
module Curve = Serve.Curve

(** {1 Observations}

    What conditions see: a distilled view of the most recent phase
    report (single-device) or cumulative cluster report (fleet),
    refreshed after every [Serve_phase] / [Checkpoint]. Before the first
    phase every count reads as zero, and quantiles and health have
    nothing to read (see {!expr} and {!cond}). *)

type obs = {
  ob_tenants : Serve.tenant_report list;
  ob_quarantines : int;  (** cores (single) or devices (fleet) *)
  ob_promotions : int;
  ob_replays : int;
  ob_duplicates : int;
  ob_lost_acked : int;
  ob_injected : int;
  ob_recovered : int;
  ob_unrecovered : int;
  ob_wall_us : float;
  ob_health : (int * Cluster.Health.state) list;
      (** device slot → health; fleet only *)
}

val obs_of_serve : Serve.report -> obs

(** {1 Expressions and conditions} *)

type stat =
  | P50
  | P95
  | P99
  | Mean  (** end-to-end latency quantiles, µs *)
  | Completed
  | Failed
  | Shed  (** all three shed reasons summed *)
  | Slo_violations
  | Offered
  | Achieved_rps

type counter =
  | Quarantines
  | Promotions
  | Replays
  | Duplicates
  | Lost_acked
  | Faults_injected
  | Faults_recovered
  | Faults_unrecovered
  | Wall_us

(** An expression fails loudly: an unbound [Var], a [Stat] whose tenant
    is not in the last observation, or a quantile ([P50], [P95], [P99],
    [Mean]) of a tenant that completed nothing fails the node that
    evaluates it with a message naming the variable or tenant. A failed
    [Let] binds nothing, a failed [If] takes no branch, and a failed
    [While] condition ends the loop. *)
type expr =
  | Const of float
  | Var of string  (** a [Let]-bound variable *)
  | Stat of stat * string
      (** per-tenant stat by tenant name; ["*"] aggregates (sums counts,
          takes the worst quantile among the tenants that completed
          something, and fails only when none did) *)
  | Counter of counter

type cmp = Lt | Le | Gt | Ge | Eq

type cond =
  | Cmp of cmp * expr * expr
  | Health_is of int * Cluster.Health.state
      (** a device slot's health. A slot absent from the last
          observation (out of range, a single-device backend, or no
          observation yet) fails the node with a message naming it. *)
  | All of cond list
  | Any of cond list
  | Not of cond

(** {1 Actions and nodes} *)

type action =
  | Serve_phase of {
      sp_label : string;
      sp_duration_ps : int;
      sp_tenants : Tenant.t list option;
          (** per-phase tenant override (rate curves anchor at the phase
              start); single-device backends only *)
    }
  | Sleep of int  (** advance simulated time without traffic *)
  | Inject_hang of { ih_dev : int; ih_system : int; ih_core : int; ih_after : int }
      (** arm a core hang on the (device's) injector: the [after]-th
          subsequent dispatch to that core never responds *)
  | Kill of int  (** fleet: freeze a device slot's engine *)
  | Restore of int  (** fleet: boot a fresh generation into the slot *)
  | Promote  (** fleet: force-promote a standby device *)
  | Checkpoint of string
      (** refresh the observation from a non-perturbing session snapshot *)

type node =
  | Act of action
  | Let of string * expr  (** evaluate now, bind for later conditions *)
  | If of { if_cond : cond; if_then : node list; if_else : node list }
  | While of { w_cond : cond; w_max_trips : int; w_body : node list }
      (** bounded loop: at most [w_max_trips] trips, and never past the
          scenario's node budget *)
  | Assert of { a_cond : cond; a_msg : string }
      (** a failed assertion records a failure (and fails the run) but
          execution continues *)

(** {1 Scenarios} *)

type backend =
  | Single of {
      sg_cfg : Serve.config;
      sg_plan : Fault.Plan.t option;
    }
  | Fleet of {
      fl_cfg : Cluster.config;
      fl_plan : Fault.Plan.t option;
    }

type t = {
  sc_name : string;
  sc_seed : int;
  sc_backend : backend;
  sc_nodes : node list;
}

val make : name:string -> seed:int -> backend:backend -> node list -> t
(** A run executes at most 256 nodes, counting every loop trip — the
    budget that makes every scenario terminate. *)

(** {1 Results} *)

type entry = {
  en_id : int;  (** execution order *)
  en_node : string;
  en_enter_ps : int;
  en_exit_ps : int;
  en_verdict : string;  (** ["ok"] / ["ok (...)"] / ["fail: ..."] *)
  en_bindings : (string * float) list;
      (** the variable environment after the node, oldest binding first *)
}

type result = {
  res_scenario : string;
  res_seed : int;
  res_entries : entry list;  (** completion order (a loop's entry follows
                                 its body's entries) *)
  res_failures : string list;
  res_ok : bool;
  res_obs : obs;  (** after the last node *)
}

val run : ?tracer:Trace.t -> t -> result
(** Execute the scenario against a fresh session of its backend.
    Deterministic: the same scenario value yields a byte-identical
    {!transcript_json}, entry times included. [tracer] records one span
    per executed node on the ["scenario"] track. Invalid actions (chaos
    on a single-device backend, hang with no injector) record a failure
    verdict and continue. *)

val transcript_json : result -> string
(** Machine-comparable transcript, one entry per line, floats printed
    with a fixed format — the byte-compare artifact for the CI gate. *)

val render : result -> string

(** {1 Bundled scenarios}

    Executable regression stories shipped with the framework, seeded
    from the command line ([beethoven_gen scenario]):

    - ["warmup-ramp-hang-recover"] (single device): warm up, ramp the
      offered load along a piecewise curve, arm a core hang, serve
      through it (watchdog quarantine + recovery asserted), cool down
      until p95 is back under the bar.
    - ["diurnal-daycycle"] (single device): a trough / diurnal-sweep /
      trough day that must saturate the device at midday (sheds, p95
      inflation asserted) and meet the SLO again in the evening.
    - ["failover-under-peak"] (3-slot fleet): kill the loaded device
      under traffic; quarantine, drain, re-shard and replay must hand
      the work over with zero lost acked commands. *)

val bundled : (string * (seed:int -> t)) list
val find_bundled : string -> (seed:int -> t) option
