(** Round-accounting ledger.

    The high-level constructions in this library are compositions of
    phases. Most phases run natively on {!Engine} and their round
    counts are measured; a few are computed centrally with their round
    cost *charged* according to the paper's own communication schedule
    (see DESIGN.md, "Fidelity model"). The ledger records every phase
    with its kind so experiments can report the two components
    separately. *)

type kind = Native | Charged

type entry = { label : string; kind : kind; rounds : int }

type t

val create : unit -> t

(** [native t ~label rounds] records a measured phase. *)
val native : t -> label:string -> int -> unit

(** [charged t ~label rounds] records an analytically charged phase. *)
val charged : t -> label:string -> int -> unit

(** [merge t ~prefix other] appends [other]'s entries into [t], with
    labels prefixed by [prefix ^ "/"] (sub-algorithm composition).
    [other]'s attached perf counters, if any, are accumulated into
    [t]'s; its notes are carried over with the same prefix. O(|other|):
    entries are stored in a grow-doubling array, so deeply nested
    composition stays linear overall. *)
val merge : t -> prefix:string -> t -> unit

(** [note t ~label value] attaches free-form replay metadata to the
    ledger — every stochastic choice (graph-generator seed, fault-plan
    description, QCheck seed) must be noted here so a failure is
    reproducible from its log line. Shown by {!pp}; propagated by
    {!merge} with the usual prefix. *)
val note : t -> label:string -> string -> unit

(** Notes in insertion order. *)
val notes : t -> (string * string) list

(** Entries in insertion order. *)
val entries : t -> entry list

val native_total : t -> int
val charged_total : t -> int

(** [attach_perf t p] accumulates engine perf counters for the phases
    this ledger describes (typically [Engine.totals_since snapshot]),
    so experiments can report simulator throughput next to round
    counts. Shown by {!pp}; propagated by {!merge}. *)
val attach_perf : t -> Engine.perf -> unit

(** The accumulated engine counters, if any were attached. *)
val perf : t -> Engine.perf option

(** Total round count (native + charged). *)
val total : t -> int

val pp : Format.formatter -> t -> unit
