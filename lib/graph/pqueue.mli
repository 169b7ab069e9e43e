(** Binary min-heap of [int] payloads keyed by [float] priorities.

    Lazy deletion: decrease-key is done by re-insertion and the caller
    skips stale pops (the standard Dijkstra discipline). Priorities and
    payloads live in two unboxed columns, so [push], [min_prio] and
    [pop_min] allocate nothing; the columns only grow (by doubling)
    and [clear] keeps them, so a queue reused across runs reaches a
    steady state with no allocation at all.

    Pop order: equal priorities leave in an order fixed by the push
    sequence alone (the sift comparisons are strict, parent before
    left child before right child), so the same pushes always pop in
    the same order. The order is the one the earlier polymorphic heap
    produced, which keeps every shortest-path tie-break bit-identical. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

(** [clear q] empties [q], keeping its storage for reuse. *)
val clear : t -> unit

(** [is_empty q] is [true] iff [q] holds no items. *)
val is_empty : t -> bool

(** [length q] is the number of items currently in [q]. *)
val length : t -> int

(** [push q prio v] inserts [v] with priority [prio]. *)
val push : t -> float -> int -> unit

(** [min_prio q] is the minimal priority in [q], without removing it.
    @raise Not_found if [q] is empty. *)
val min_prio : t -> float

(** [pop_min q] removes the item with minimal priority and returns its
    payload; read its priority first with {!min_prio}.
    @raise Not_found if [q] is empty. *)
val pop_min : t -> int
