(** Device-memory allocator.

    The discrete-platform allocator of §II-C2: a first-fit free list over
    the FPGA's physical address space, with all state held host-side so
    separate host processes can share the device without conflicts. The
    embedded flavour models hugepage-backed allocation in a shared address
    space (same mechanics, different base/alignment). *)

type t

type free_error =
  | Double_free  (** the base was allocated once, and freed already *)
  | Never_allocated  (** the base was never returned by {!alloc} *)

exception Invalid_free of { addr : int; reason : free_error }
(** Raised by {!free} with the offending base address. *)

val create : size:int -> unit -> t
(** Allocations are aligned to 4096 bytes (one hugepage-ish granule / AXI
    burst window). *)

val alloc : t -> int -> int option
(** First-fit allocation; [None] when no region fits. Returned addresses
    are aligned and non-overlapping. *)

val free : t -> int -> unit
(** Free by base address; coalesces neighbours. Raises {!Invalid_free} on
    a base that is not currently allocated, distinguishing a double-free
    from a pointer that never came out of {!alloc}. *)

val free_bytes : t -> int
val n_blocks : t -> int
(** Live allocations. *)

val check_invariants : t -> bool
(** No overlap, alignment respected, accounting consistent — used by the
    property tests. *)
