(** Custom command/response formats (§II-B "Command Abstractions").

    A developer declares the payload of an accelerator command as named,
    sized fields ([AccelCommand] in Fig. 2). Beethoven packs these onto the
    RoCC payload registers — possibly across several RoCC beats — and the
    generated C++ bindings ({!Codegen}) expose the same fields as typed
    function arguments, so the packing never leaks into user code. *)

type field_kind =
  | Uint of int  (** unsigned integer of the given bit width (1..64) *)
  | Address  (** a device address; width fixed by the platform (64 here) *)

type field = { f_name : string; f_kind : field_kind }

type command = {
  cmd_name : string;
  cmd_funct : int;  (** RoCC funct selector, unique per system *)
  fields : field list;
  has_response : bool;
  resp_bits : int;  (** response payload width (<= 64) *)
}

val field_bits : field -> int
val rocc_beats : command -> int
(** Number of RoCC commands needed: each carries 128 payload bits. *)

val make :
  name:string ->
  funct:int ->
  ?response_bits:int ->
  (string * field_kind) list ->
  command
(** [response_bits] of 0 (the default) means an empty/ack-only response
    ([EmptyAccelResponse]). Raises on duplicate or empty field names, bad
    widths, or more than 8 beats of payload. *)

val pack : command -> (string * int64) list -> (int64 * int64) list
(** Field values → RoCC payload pairs, one pair per beat. Values must cover
    exactly the declared fields; over-width values are rejected. *)

val unpack : command -> (int64 * int64) list -> (string * int64) list
(** Inverse of {!pack}. *)

val decode : command -> Rocc.t list -> string -> int
(** The behavior-side decoder: [decode c beats] unpacks the reassembled
    RoCC beats of one command once and returns the field lookup, each
    value as an [int] (wider fields wrap as [Int64.to_int] does). Raises
    [Not_found] on a field the command does not declare. *)
