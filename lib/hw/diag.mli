(** Structured diagnostics shared by the netlist linter ({!Lint}) and the
    composer design-rule checker ([Beethoven.Check]).

    A diagnostic carries a stable rule id (e.g. ["comb-loop"],
    ["drc-floorplan"]), a severity, an optional location (a signal
    description, a memory name, a [system.channel] path, …), a message and
    an optional fix hint. Rule ids are the waiver key: tools accept
    [--waive RULE] and a [--Werror]-style strictness knob, both implemented
    here so every front-end behaves identically. *)

type severity = Error | Warning | Info

type t = {
  rule : string;  (** stable rule id, the waiver key *)
  severity : severity;
  loc : string option;  (** where: signal / memory / config path *)
  message : string;
  hint : string option;  (** optional suggested fix *)
}

val make :
  ?loc:string -> ?hint:string -> rule:string -> severity:severity -> string -> t

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val sort : t list -> t list
(** Stable sort by severity (errors first), then rule id. *)

val to_string : t -> string
(** One line: [severity[rule] loc: message], plus an indented hint line
    when a hint is present. *)

val render : t list -> string
(** All diagnostics, one per line, followed by a
    ["N error(s), N warning(s), N info(s)"] summary. Empty string for []. *)

val to_json : t -> string
(** A JSON object; [loc] / [hint] keys are omitted when absent. *)

val render_json : t list -> string
(** [{"diagnostics": [...], "errors": n, "warnings": n, "infos": n}]. *)

val waive : rules:string list -> t list -> t list
(** Drop diagnostics whose rule id appears in [rules]. *)

val promote_warnings : t list -> t list
(** The [--Werror] knob: re-tag every [Warning] as [Error]. *)

val errors : t list -> t list
val has_errors : t list -> bool
val count : t list -> severity -> int

val raise_if_errors : ?what:string -> t list -> unit
(** Raise [Failure] rendering the error-severity diagnostics (prefixed
    with [what]) when any are present; no-op otherwise. *)
