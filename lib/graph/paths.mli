(** Sequential shortest-path computations.

    These serve as the ground truth for verifying the distributed
    algorithms (exact stretch checks), as building blocks for
    sequential baselines (greedy spanner, KRY95 SLT, LE lists), and as
    the query kernel of the serving path (oracle tiers A and C).

    {2 The Dijkstra kernel}

    {!distances}, {!dijkstra} and {!dijkstra_multi} share one kernel:
    a lazy-deletion Dijkstra over the CSR columns of {!Graph.view} with
    an int-payload {!Pqueue}. The only long-lived allocation per call
    is the arrays it returns — [dist] for {!distances}; [dist] and
    [parent_edge] for {!dijkstra}; those two and [source] for
    {!dijkstra_multi}. (A build without cross-module inlining, such as
    dune's dev profile, also boxes each float priority passed to and
    from the heap; those words die in the minor heap.) The heap is per-domain scratch (a [Domain.DLS]
    slot, cleared on entry and grown only past its largest earlier
    frontier), so calls from parallel domains do not interfere.

    The scratch heap is not re-entrant: an [edge_ok] that itself runs
    a shortest-path search would clobber the caller's heap. The kernel
    detects that case and gives the nested call a fresh private heap,
    so it stays correct but allocates; keep [edge_ok] a plain lookup.
    [edge_ok] may be called more than once per edge.

    Results are a function of the graph, the sources and the options
    alone: equal-distance ties resolve in the heap's fixed pop order,
    so [parent_edge] and [source] are deterministic. Edge weights are
    strictly positive ({!Graph.create} enforces it), which is what lets
    the kernel run without a settled set. *)

(** Result of a single-source computation: [dist.(v)] is the shortest
    distance from the source ([infinity] if unreachable), and
    [parent_edge.(v)] is the edge id towards the source on a shortest
    path ([-1] for the source itself and unreachable vertices). *)
type sssp = { dist : float array; parent_edge : int array }

(** [distances g src] is the [dist] array of [dijkstra g src],
    bit for bit, without building the parent pointers: the call for
    callers that read only distances. Same options as {!dijkstra}. *)
val distances : ?bound:float -> ?edge_ok:(int -> bool) -> Graph.t -> int -> float array

(** [dijkstra g src] is the exact single-source shortest paths from
    [src].
    @param bound  stop expanding beyond this distance; entries past the
                  bound are [infinity]. Default: unbounded.
    @param edge_ok  consider only edges for which this predicate holds
                    (used to restrict to a subgraph). Default: all. *)
val dijkstra : ?bound:float -> ?edge_ok:(int -> bool) -> Graph.t -> int -> sssp

(** [dijkstra_multi g srcs] runs Dijkstra from a virtual super-source
    connected with weight 0 to each of [srcs]: [dist.(v)] is the
    distance to the nearest source and [source.(v)] that source's id
    ([-1] when unreachable). *)
val dijkstra_multi :
  ?bound:float ->
  ?edge_ok:(int -> bool) ->
  Graph.t ->
  int list ->
  sssp * int array

(** [distance g u v] is the exact [d_G(u, v)]. *)
val distance : ?edge_ok:(int -> bool) -> Graph.t -> int -> int -> float

(** [path_to sssp g v] reconstructs the vertex path from the source to
    [v] (inclusive) from parent pointers; [None] if unreachable. *)
val path_to : sssp -> Graph.t -> int -> int list option

(** [bfs_hops g src] is the hop distance (unweighted) from [src];
    [-1] for unreachable vertices. *)
val bfs_hops : Graph.t -> int -> int array

(** [eccentricity_hops g v] is the maximum hop distance from [v]. *)
val eccentricity_hops : Graph.t -> int -> int

(** [all_pairs g] runs Dijkstra from every vertex; [O(n m log n)].
    Intended for test-scale graphs only. *)
val all_pairs : ?edge_ok:(int -> bool) -> Graph.t -> float array array
