(** OS page-table model for embedded platforms.

    §II-C2: on embedded targets the FPGA shares the host's address space
    and Beethoven obtains *physical* addresses by allocating Linux
    hugepages and reading the page table. This module models that
    machinery: a virtual address space backed by 4 KB pages or 2 MB
    hugepages from a physical frame pool. Regular 4 KB mappings are
    deliberately scattered (as a long-running OS's free list would be), so
    only hugepage-backed buffers are physically contiguous — which is why
    the runtime insists on hugepages for accelerator buffers. *)

type t

val create : phys_bytes:int -> unit -> t
(** A machine with the given physical memory (multiple of 2 MB). *)

type mapping = { vaddr : int; bytes : int; hugepages : bool }

val mmap : t -> ?hugepages:bool -> int -> mapping
(** Allocate a virtual region ([hugepages] defaults to false). Raises
    [Failure] when physical frames (or hugepage slots) are exhausted. *)

val munmap : t -> mapping -> unit

val translate : t -> int -> int
(** Virtual → physical for one address. Raises [Not_found] if unmapped. *)

val physically_contiguous : t -> mapping -> bool
(** Whether the whole region translates to one contiguous physical run —
    the property a physically-addressed DMA engine needs. *)

val frames_free : t -> int
(** Free 4 KB frames remaining in the regular pool. *)
