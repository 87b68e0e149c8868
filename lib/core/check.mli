(** Composer design-rule checker.

    Validates a {!Config.t} against a target platform {e before}
    elaboration, so a configuration that can never map to the device is
    rejected with actionable diagnostics instead of a mid-elaboration
    exception (or, worse, a netlist the tool flow rejects hours later).
    Shares the {!Hw.Diag} framework with the netlist linter; rule ids are
    waiver keys and the [--Werror] knob is {!Hw.Diag.promote_warnings}.

    Rule catalog (see {!rules}):

    - [drc-name-collision] (error) — duplicate system / channel /
      scratchpad / command names (re-validated here because the config
      record type is open: {!Config.make}'s checks can be bypassed).
    - [drc-core-count] (error) — a system with fewer than 1 or more than
      1024 cores; 1024 is the RoCC [core_id] encoding limit.
    - [drc-rocc-encoding] (error) — more systems than RoCC [system_id]
      can address (256), a funct outside [0, 127], or a command payload
      beyond 8 beats.
    - [drc-funct-collision] (error) — two commands of one system sharing
      a funct: the decoder could not tell them apart.
    - [drc-dangling-ref] (error) — an intra-core port naming a system or
      scratchpad that does not exist.
    - [drc-axi-capacity] (warning) — more memory channel instances than
      the platform has AXI IDs (channels will share IDs and serialize),
      or a TLP channel whose in-flight depth exceeds the ID pool.
    - [drc-scratchpad-capacity] (error/warning) — scratchpad requests
      that exceed the platform's total block-memory bits (error), or the
      preferred cell type's count so that spilling is certain (warning);
      on ASIC targets, requests the SRAM compiler cannot realize (error).
    - [drc-floorplan] (error) — the placement check: some core fits on
      no SLR.
    - [drc-sta-slr-path] (warning/error) — the {!Hw.Sta} worst-path
      estimate of an RTL-DSL kernel, taxed with the platform NoC's
      SLR-crossing penalty for every die between the core's placement
      ({!Floorplan.slr_of}) and the shell on SLR 0, exceeds the depth
      budget. On-die overruns warn; a path that additionally crosses
      dies errors — exactly the paths the paper's floorplanner exists to
      keep short.

    Both placement rules read one {!Floorplan.place}, which {!run}
    returns so elaboration does not place the design again.

    Kernel circuits attached to systems are additionally run through
    {!Hw.Lint.circuit} (with the platform's LUTRAM budget), and those
    diagnostics are folded in under their original lint rule ids with the
    system name prefixed to the location. *)

val rules : (string * Hw.Diag.severity * string) list
(** (rule id, default severity, one-line rationale) for the DRC-level
    rules; lint rule ids are documented in {!Hw.Lint.rules}. *)

val default_sta_budget : int
(** The worst-path budget (in {!Hw.Sta} delay units) of
    [drc-sta-slr-path]. *)

(** {1 Per-system kernel analysis}

    The expensive, placement-independent slice of the DRC: the netlist
    lint, the {!Hw.Sta} report and the folded size of one system's
    kernel circuit, over one {!Hw.Levelize} of it. It reads only the system's name (which prefixes the
    lint locations) and its kernel circuit, and those two are the key
    {!Elaborate.Cache} reuses it under: a config delta that keeps a
    system's name and circuit replays its analysis instead of re-linting
    and re-timing the kernel. *)

type kernel_analysis = {
  ka_lint : Hw.Diag.t list;
      (** {!Hw.Lint.circuit} diagnostics, locations prefixed with the
          system name (empty for transaction-level kernels) *)
  ka_sta : Hw.Sta.report option;
      (** static timing of the kernel circuit, [None] without one *)
  ka_size : Resource_model.kernel_size option;
      (** node count and register bits of the constant-folded kernel
          circuit, which the placement's logic estimate reads *)
}

val analyze_kernel : Config.system -> kernel_analysis
(** Lint + STA + folded size of one system's kernel circuit. A pure function
    of the system's name and kernel circuit. The circuit is
    constant-folded once: lint and [ka_size] share the fold, so an
    elaboration that reuses the analysis folds nothing. *)

val analyses_of :
  ?analyses:(string * kernel_analysis) list ->
  Config.t ->
  (string * kernel_analysis) list
(** Per-system analyses in config order; entries found in [analyses]
    (keyed by system name) are reused verbatim, the rest are computed
    fresh with {!analyze_kernel}. *)

val sta :
  ?analyses:(string * kernel_analysis) list ->
  Config.t ->
  (string * Hw.Sta.report) list
(** Per-system {!Hw.Sta} reports for every system carrying an RTL-DSL
    kernel circuit (the [beethoven_gen sta] backend). *)

val run :
  ?analyses:(string * kernel_analysis) list ->
  Config.t ->
  Platform.Device.t ->
  Hw.Diag.t list * Floorplan.t option
(** Run every design rule, the per-system netlist lint pass included,
    and return the diagnostics with the design's placement. The config
    is placed once, and only when its structural rules pass:
    [drc-floorplan] and [drc-sta-slr-path] read that placement, and it
    is [None] exactly when it was not attempted or failed (then an
    error diagnostic says why). [analyses] supplies precomputed (typically
    cached) per-system kernel analyses — the result is identical to a
    fresh run as long as each entry matches {!analyze_kernel} of the
    same-named system. The diagnostics are unfiltered: apply
    {!Hw.Diag.waive} / {!Hw.Diag.promote_warnings} for policy. *)
