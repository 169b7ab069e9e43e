(** Domain-sharded multi-network serving over a {!Store}.

    {!run} pushes a batch of (network digest, source, destination)
    requests through one oracle tier, sharding the work across OCaml
    domains: the request array is cut into fixed-width chunks
    ({!chunk_queries}, independent of the domain count), domains claim
    chunks off a shared atomic cursor, and every
    per-chunk accumulator is merged on the main domain in ascending
    chunk order. Because the chunk boundaries and every merge order
    are functions of the batch alone, the answered-distance checksums
    (per network and global) are byte-identical at every domain count
    — the fleet's replay/correctness gate, pinned by [store-smoke] and
    the QCheck differential.

    Mutability is confined by construction:
    - network resolution (the store's oracle LRU: loads, evictions,
      quarantines) happens in a sequential pre-pass on the calling
      domain, so store accounting is deterministic too;
    - tiers A/B are read-only on shared oracles — embarrassingly
      parallel;
    - the source-cache tier gets one {!Ln_route.Oracle.clone} per
      (domain, network); per-clone counters are summed
      order-independently at the end, like the [Metrics] shards.

    Latencies stream into per-domain histograms merged after the
    barrier, and into the per-digest [lightnet_serve_latency_us]
    registry series ({!Ln_route.Serve.latency_metric}). *)

type request = { net : string; u : int; v : int }

type net_outcome = {
  digest : string;
  queries : int;
  checksum : float;  (** sum of answered distances on this network *)
}

type outcome = {
  tier : Ln_route.Oracle.tier;
  domains : int;
  queries : int;  (** answered *)
  skipped : int;  (** requests whose network failed to resolve *)
  networks : int;  (** distinct networks answered *)
  wall_s : float;
  qps : float;
  latency : Ln_route.Serve.latency;
  checksum : float;  (** global: per-network sums in digest order *)
  nets : net_outcome list;  (** sorted by digest *)
  store : Store.stats;
      (** hit/miss/eviction deltas over this batch; occupancy fields
          are end-of-batch values *)
  cache : Ln_route.Oracle.cache_stats;
      (** source-cache tier: per-domain clone counters, summed *)
}

val chunk_queries : int
(** Fixed chunk width (512): the unit of work domains claim, and the
    unit of checksum accumulation. *)

(** [workload store spec ~count] draws [count] requests: networks by a
    Zipf([net_skew], default 1.1; [<= 0.0] is uniform) over the
    store's ready digests in sorted order, then per-network (source,
    destination) pairs from {!Ln_route.Workload.generate} with a
    per-network seed derived from [seed]. Deterministic for a fixed
    (store contents, spec, seed, count). Resolves each requested
    network once — so it warms the store — but {!run} reports LRU
    deltas over its own batch, so no reset is needed in between.
    @raise Invalid_argument if the store has no ready artifacts. *)
val workload :
  ?seed:int ->
  ?net_skew:float ->
  Store.t ->
  Ln_route.Workload.spec ->
  count:int ->
  request array

(** [run store ~tier requests] serves the batch on [domains] domains
    (default 1; the calling domain always participates).
    [cache_capacity] sizes the per-domain source-cache clones
    (defaults to each oracle's own capacity). Requests whose network
    cannot be resolved (unknown or quarantined digest) are counted in
    [skipped], never fatal. Every request resolves through the store
    once (so its LRU accounting is per request), but the batch keeps
    alive only the first oracle resolved for each network, however
    often the store reloads it.
    @raise Invalid_argument if [domains < 1]. *)
val run :
  ?domains:int ->
  ?cache_capacity:int ->
  Store.t ->
  tier:Ln_route.Oracle.tier ->
  request array ->
  outcome

(** Store-LRU hit fraction of the batch: hits / (hits + misses), 0.0
    when the batch resolved nothing. *)
val store_hit_rate : outcome -> float

(** The replay invariant as text: one ["<digest> <checksum>"] line per
    network (digest order, [%.17g] — exact float round-trip) and a
    final ["total <checksum>"] line. Byte-identical across domain
    counts; [serve --checksum-out] writes it and [store-smoke] [cmp]s
    it at 1/2/4 domains. *)
val checksum_lines : outcome -> string

val pp_outcome : Format.formatter -> outcome -> unit
