(** Simulation statistics: counters, running means, quantiles and
    histograms. *)

type counter

val counter : unit -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  total : float;
}

type series

val series : unit -> series
val observe : series -> float -> unit

val summarize_opt : series -> summary option
(** [None] on an empty series — the safe form for call sites that can
    legitimately observe zero samples (short fault campaigns, idle ports). *)

val quantile_opt : series -> q:float -> float option
(** Linear-interpolated quantile of all observed samples ([q] clamped to
    [0, 1]); [None] on an empty series. The samples are sorted on the
    first call after an {!observe}, O(n log n), and later calls reuse that
    order until the next {!observe}. *)

type histogram

val histogram : bucket_width:float -> histogram
val record : histogram -> float -> unit

val buckets : histogram -> (float * int) list
(** Sorted [(bucket_lower_bound, count)] pairs covering the full observed
    range — interior buckets with zero hits are included so exported
    histograms are plot-ready. *)
