(** Arbitrary-width bitvectors.

    Values are unsigned, fixed-width words, the data values that flow through
    the {!Hw} RTL DSL (the role Chisel's [UInt]/[Bits] play for Beethoven).
    All arithmetic is modulo [2^width]; mixed-width operands are rejected
    with [Invalid_argument] so that width bugs surface at the point of use,
    exactly like an HDL elaborator would. *)

type t

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. [w >= 0]. *)

val one : int -> t
(** [one w] is the value 1 at width [w >= 1]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] takes the low [width] bits of [n]. [n >= 0]. *)

val of_int64 : width:int -> int64 -> t
(** Low [width] bits of [n], interpreting [n] as unsigned. *)

val of_bytes : Bytes.t -> t
(** Little-endian: byte [i] of the buffer is bits [8i+7 .. 8i]. The width
    is [8 * Bytes.length]. *)

val of_bin_string : string -> t
(** Parse a binary string, e.g. ["1010"] (width 4). Underscores ignored. *)

val of_hex_string : width:int -> string -> t
(** Parse a hex string, e.g. ["dead_beef"], truncated/zero-extended to
    [width]. *)

(** {1 Inspection} *)

val width : t -> int
val is_zero : t -> bool
val bit : t -> int -> bool
(** [bit t i] is bit [i] (0 = LSB). Out-of-range bits are [false]. *)

val msb : t -> bool
val to_int : t -> int
(** Raises [Failure] if the value does not fit in an OCaml [int]. *)

val to_int64 : t -> int64
(** Raises [Failure] if width > 64 and high bits are set. *)

val to_bytes : t -> Bytes.t
(** Little-endian, [(width + 7) / 8] bytes; the inverse of {!of_bytes}.
    Bits of the last byte past the width are zero. *)

val to_int_trunc : t -> int
(** Low 62 bits as a non-negative [int]; never raises. *)

val to_bin_string : t -> string
val to_hex_string : t -> string
val pp : Format.formatter -> t -> unit
(** Prints as [width'hHEX]. *)

(** {1 Arithmetic} (operands must have equal width) *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Truncating multiply at the operand width. *)


(** {1 Logic} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val shift_right_arith : t -> int -> t

(** {1 Comparison} (unsigned unless noted) *)

val equal : t -> t -> bool
val compare : t -> t -> int
val lt : t -> t -> bool
val ge : t -> t -> bool
val to_signed_int : t -> int
(** Two's-complement interpretation; raises [Failure] when it can't fit. *)

val of_signed_int : width:int -> int -> t
(** Two's-complement encoding of a possibly negative [int]. *)

(** {1 Structure} *)

val slice : t -> hi:int -> lo:int -> t
(** [slice t ~hi ~lo] extracts bits [hi..lo] inclusive (width hi-lo+1). *)

val concat : t -> t -> t
(** [concat hi lo]: [hi] becomes the high bits. *)

val concat_list : t list -> t
(** [concat_list [a; b; c]] = [concat a (concat b c)]. *)

val concat_ints : widths:int array -> int array -> t
(** [concat_ints ~widths vs] concatenates fields, [vs.(0)] the
    most-significant: field [i] is the low [widths.(i)] bits of
    [vs.(i)]. One allocation, no intermediate vectors — the wide-concat
    path of the compiled simulator. Raises [Invalid_argument] when the
    arrays differ in length or a width is outside [0, 62]. *)

val sext : t -> int -> t
(** Sign-extend (or truncate) to the given width. *)

val repeat : t -> int -> t
(** [repeat t n] concatenates [n] copies of [t]. *)

val extract_int : t -> lo:int -> width:int -> int
(** [extract_int t ~lo ~width] is bits [lo .. lo+width-1] as a
    non-negative [int], without allocating — the single-word fast path of
    the compiled simulator. Bits beyond [t]'s width read as zero. Raises
    [Invalid_argument] when [width] is outside [0, 62] or [lo] is
    negative. *)

val reverse : t -> t
(** Bit-reverse. *)
