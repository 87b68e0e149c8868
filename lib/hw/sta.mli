(** Static timing analysis over a {!Levelize}d circuit.

    No synthesis, no placement — just a per-primitive delay model summed
    along the levelized dependency chains, the same first-order estimate a
    composer can afford to run on every build. Two models:

    - [Unit]: every combinational primitive costs 1, wiring/slicing
      included, so the worst arrival time equals {!Levelize.comb_depth} —
      a pure logic-depth count.
    - [Typical] (default): free wiring ([Wire]/[Select]/[Concat]/[Shift]
      are routing, not logic), 1 for bitwise gates and muxes, 2 for
      add/sub/compare carry chains, 4 for a multiplier, 2 for an
      asynchronous memory read (distributed-RAM access). Sources
      (constants, inputs, registers, synchronous reads) launch at 0.

    The numbers are unit-less "levels of logic", not picoseconds: they
    rank paths and designs, and [Beethoven.Check] turns them into a DRC
    by taxing paths on cores placed across SLR boundaries
    ({!Floorplan.slr_of}) with the interconnect crossing penalty. *)

type model = Unit | Typical

val model_name : model -> string
(** ["unit"] / ["typical"]. *)

type path_node = {
  pn_signal : Signal.t;
  pn_delay : int;  (** this node's own delay *)
  pn_arrival : int;  (** cumulative delay up to and including this node *)
}

type report = {
  r_circuit : string;
  r_model : model;
  r_nodes : int;
  r_comb_depth : int;  (** levels of the levelized array *)
  r_max_delay : int;  (** worst arrival time under the model *)
  r_worst_path : path_node list;
      (** launch point first, endpoint last; deterministic (ties broken
          by lowest slot) *)
  r_outputs : (string * int * int) list;
      (** per-output [(name, depth, delay)] in port order *)
  r_hotspots : (Levelize.node * int) list;
      (** the 5 highest-fanout nodes with their fanout, descending *)
}

val analyze : ?model:model -> Levelize.t -> report
val of_circuit : ?model:model -> Circuit.t -> report

val render : report -> string
(** Human-readable tables: summary, worst path (signal / kind / delay /
    arrival), per-output depths, fanout hotspots. *)

val to_json : report -> string
(** Stable single-line JSON schema:
    [{"circuit":…,"model":…,"nodes":…,"comb_depth":…,"max_delay":…,
    "worst_path":[{"signal":…,"kind":…,"delay":…,"arrival":…}…],
    "outputs":[{"name":…,"depth":…,"delay":…}…],
    "hotspots":[{"signal":…,"fanout":…}…]}]. *)
