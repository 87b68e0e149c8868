(** Discrete-event simulation engine.

    Time is a dimensionless integer tick; the SoC models interpret it as a
    clock cycle of the accelerator fabric clock. Events scheduled for the
    same tick fire in scheduling order (deterministic).

    {2 Lanes}

    One simulation can be built from several engines that share one event
    queue: {!join} makes an empty engine a {e lane} of another engine's
    queue. Every lane of a queue reads the same clock, and events due at
    the same tick fire by lane rank, then in scheduling order, so a lane
    of lower rank drains the tick before a lane of higher rank sees it. A
    never-joined engine is a lane of rank 0 in its own queue, with the
    plain (time, scheduling order) rule above. Running or stepping any
    lane runs the whole queue. *)

type t

val create : unit -> t
val now : t -> int

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a callback [delay >= 0] ticks from now. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** Schedule at an absolute time [>= now]. *)

val join : t -> into:t -> rank:int -> unit
(** [join e ~into ~rank] makes [e] a lane of [into]'s queue: from now on
    [e] schedules there with rank [rank] and reads [into]'s clock.
    Raises [Invalid_argument] if [rank] is outside [[0, 16383]], [e]'s
    queue holds events or its clock is ahead of [into]'s. *)

val halt : t -> unit
(** Drop the lane's pending events and every event it schedules from now
    on; other lanes' events and the clock are untouched. *)

exception Livelock of { clock : int; pending : int }
(** Raised by {!step} (and so by {!run} and every step loop) when 10M
    consecutive events have fired without the clock moving: a zero-time
    cycle. [clock] is the stuck time; [pending] counts the queued events,
    the one that would have fired next included. It is the engine's only
    livelock guard: no run fails for being long, and a positive-delay
    cycle that never settles is for its owner to catch. *)

val run : ?until:int -> t -> unit
(** Drain the event queue. With [until], stop once the next event would
    fire after [until] (the clock is left at [until]). *)

val step : t -> bool
(** Fire the single next event. Returns [false] when the queue is empty. *)
