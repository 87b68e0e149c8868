(** Design-space exploration over the composer's knobs.

    The paper observes that Spatial's DSE frequently proposed points that
    failed synthesis; Beethoven's elaboration is cheap and its floorplanner
    is the fit oracle, so a sweep over core counts (or any discrete knob)
    can reject infeasible points before any tool run. This module provides
    that: enumerate candidates, check fit, score with a user metric, and
    report the frontier.

    This is also the {e offline pre-filter} of the closed-loop tuner
    ([Tune]): before spending a live serving phase on a candidate, the
    tuner calls {!fit} through a shared {!Elaborate.Cache} — an
    infeasible knob combination is rejected by the elaboration-time DRC
    (floorplan, scratchpad capacity, timing budget), and every system
    whose name and kernel circuit an earlier candidate already had is a
    cache hit. *)

type point = {
  pt_cores : int;
  pt_fits : bool;
  pt_peak_utilization : float;  (** worst per-SLR utilization when it fits *)
  pt_metric : float option;  (** user score (higher is better) *)
}

val fit :
  ?cache:Elaborate.Cache.cache ->
  Config.t ->
  Platform.Device.t ->
  (unit, string) result
(** Full-DRC fit check: elaborate the config (through [cache] when
    given) and return [Ok ()], or [Error reason] when any design rule at
    error severity rejects it. This is the oracle the tuner uses to
    pre-filter candidates. *)

val sweep_cores :
  config_of:(n_cores:int -> Config.t) ->
  ?max_cores:int ->
  ?metric:(n_cores:int -> float) ->
  Platform.Device.t ->
  point list
(** Evaluate 1..[max_cores] (default 48). The fit oracle is the
    floorplan-only placement check, which accepts configs the full DRC
    ({!fit}) would only warn about. [metric] is only invoked for points
    that fit. *)

val best : point list -> point option
(** Highest metric among fitting points (falls back to the largest
    fitting core count when no metric was supplied). *)

val render : point list -> string
