(** Functional model of the A³ approximate-attention pipeline (the case
    study of §III-C), parameterized for BERT: 64-dimensional embeddings,
    320-row key/value matrices, 1-byte fixed-point operands with wider
    intermediates.

    The three coarse stages of Fig. 7 are modelled bit-exactly:
    (1) query×key dot products with a running-max reduction, staged
    through a FIFO; (2) softmax via a fixed-point exp lookup table after
    the first global reduction; (3) the weighted value-matrix reduction.
    A float reference implements exact attention on the dequantized
    operands for accuracy checks. *)

val dim : int (** 64 *)

val n_keys : int (** 320 *)

(** Operands are Q3.4 fixed point (scale 1/16, range [-8, 8)). *)
val operand_scale : float

val dequantize : int -> float

(** {1 Fixed-point pipeline} *)

val exp_lut : int array
(** 256-entry table: [exp_lut.(i)] = round(2^15 * exp(-i/16)) — the
    stage-2 exponentiation unit. *)

val attend_fixed : query:int array -> keys:int array array -> values:int array array -> int array
(** All operands int8-valued ints; result: [dim] outputs in int8 range.
    Raises [Invalid_argument] on dimension mismatches. *)

val attend_float : query:float array -> keys:float array array -> values:float array array -> float array
(** Exact softmax attention, the accuracy baseline. *)

val mean_abs_error : int array -> float array -> float
(** Mean |dequantized fixed output − float output| across dimensions. *)

(** {1 Memory layout}

    Operand and output rows sit back to back in memory, [dim] bytes
    each, one two's-complement int8 per byte. *)

val put_rows : Bytes.t -> int array array -> unit
val row_of_bytes : Bytes.t -> int -> int array
(** The row stored at a byte offset. *)

(** {1 Pipeline timing constants} *)

val issue_interval_cycles : int
(** Cycles between successive queries entering the pipeline (stage-1 rate:
    one key row per cycle, plus reduction turnaround) = 340. *)

val pipeline_latency_cycles : int
(** Query-in to result-out latency. *)
