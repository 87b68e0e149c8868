(** Closed-loop autotuner over the composer's knobs.

    The COSMOS observation (PAPERS.md) is that synthesis-side knobs and
    system knobs must be searched {e together}: the best core count
    depends on how the runtime batches and bounds the commands that
    reach those cores, and both trade against latency under live load.
    This module closes that loop: a seeded, deterministic search
    proposes one-knob deltas over the deployed serving SoC — cores per
    system, server batching cap, per-core outstanding bound — and
    measures each candidate instead of modeling it:

    + {b pre-filter} — the candidate config is elaborated through a
      shared {!Beethoven.Elaborate.Cache} via {!Beethoven.Dse.fit}; the
      full DRC (floorplan, capacity, timing) rejects infeasible knob
      combinations before any serving phase is spent. The fit is a
      feasibility verdict only, never a score. The serving systems carry
      no kernel circuit, so after the seed candidate every system lookup
      is a cache hit;
    + {b live evaluation} — a fresh {!Serve.Session} deploys the
      candidate's systems and serves the fixed
      closed-loop tuning workload for [ab_rounds] phases; phase [i] of
      every candidate uses client-stream salt [i], so all candidates are
      measured under byte-identical offered load. Each candidate is
      simulated once and its evaluation replayed from a memo on later
      comparisons — the serving analogue of the elaboration cache;
    + {b A/B promotion} — phase [i] of the challenger is paired with
      phase [i] of the incumbent; the challenger is promoted only on a
      statistically-ordered win: it must win strictly more paired phases
      than it loses (achieved rps first, the statistic the score and the
      front rank by; p99 as the tiebreak) without regressing mean p99 by
      more than 10%.

    It searches no memory-channel knob: the tuning workload is bound by
    the runtime server (two 1.5 µs operations per request cap it near
    333 K rps), so a prefetch-depth axis scored every value
    identically.

    The search emits a byte-deterministic Pareto front (throughput vs.
    p99) as JSON: same seed ⇒ byte-identical
    output across processes, which is what the [@tune] gate compares. *)

module Knobs : sig
  type t = {
    kn_cores : int;  (** cores per deployed system *)
    kn_batch : int;  (** commands coalesced per server occupancy *)
    kn_core_cap : int;  (** per-core outstanding-command bound *)
  }

  val default : t
  (** The conservative baseline the search starts from: 2 cores, no
      batching, at most 2 commands outstanding per core. *)

  val render : t -> string
  val key : t -> string
  (** Canonical one-line form; equal keys ⇔ equal knobs. *)
end

type axis = Cores | Batch | Core_cap

val all_axes : axis list
val axis_name : axis -> string
val axis_of_name : string -> axis option

type score = {
  sc_rps : float;  (** mean over phases of total achieved requests/s *)
  sc_p99_us : float;  (** mean over phases of the worst tenant p99 *)
  sc_qdepth_p95 : float;
      (** p95 tenant queue depth over the evaluation, from the
          {!Trace.Series} snapshot *)
  sc_completed : int;  (** completions summed over the phases *)
}

type outcome =
  | Infeasible of string  (** rejected by the {!Beethoven.Dse.fit} pre-filter *)
  | Evaluated of {
      ev_score : score;
      ev_wins : int;  (** paired phases won vs. the then-incumbent *)
      ev_losses : int;
      ev_promoted : bool;
    }

type candidate = { ca_id : int; ca_knobs : Knobs.t; ca_outcome : outcome }

type result = {
  r_seed : int;
  r_budget : int;
  r_axes : axis list;
  r_phase_ps : int;
  r_ab_rounds : int;
  r_candidates : candidate list;
      (** the seed candidate (id 0) then every proposal in search order *)
  r_best : candidate;  (** the final incumbent *)
  r_promotions : int;
  r_prefiltered : int;
  r_phases_run : int;  (** serving phases actually simulated *)
  r_cache_hits : int;
  r_cache_misses : int;
  r_cache_entries : int;
  r_violations : string list;
      (** accounting violations from any evaluation report (must be
          empty; the CLI exits 1 otherwise) *)
}

val run :
  ?seed:int ->
  ?budget:int ->
  ?axes:axis list ->
  ?phase_ps:int ->
  ?ab_rounds:int ->
  ?platform:Platform.Device.t ->
  ?start:Knobs.t ->
  unit ->
  result
(** Run the search: [budget] proposals (default 6) of seeded one-knob
    mutations restricted to [axes] (default {!all_axes}), each A/B-tested
    against the incumbent over [ab_rounds] (default 2) paired phases of
    [phase_ps] (default 100 µs) simulated serving. Deterministic:
    equal arguments ⇒ identical result, byte-identical
    {!pareto_json}. *)

val pareto : result -> candidate list
(** The non-dominated evaluated candidates (maximize throughput,
    minimize p99), sorted by descending throughput
    then ascending p99 then id. *)

val pareto_json : result -> string
(** Byte-deterministic JSON: search metadata, elaboration-cache
    hit/miss counts, the final incumbent, and the Pareto front. *)

val render : result -> string
(** Human-readable search log: every candidate with its knobs, score,
    A/B record and Pareto membership, plus the cache stats line. *)
