module Gen = Ln_graph.Gen
module Oracle = Ln_route.Oracle
module Serve = Ln_route.Serve
module Workload = Ln_route.Workload
module Metrics = Ln_obs.Metrics

type request = { net : string; u : int; v : int }

type net_outcome = { digest : string; queries : int; checksum : float }

type outcome = {
  tier : Oracle.tier;
  domains : int;
  queries : int;
  skipped : int;
  networks : int;
  wall_s : float;
  qps : float;
  latency : Serve.latency;
  checksum : float;
  nets : net_outcome list;
  store : Store.stats;
  cache : Oracle.cache_stats;
}

(* The determinism contract hangs off this constant: chunk boundaries
   are [i * chunk_queries], never a function of the domain count, so
   the float additions inside a chunk and the ascending-chunk merge
   happen in one fixed order no matter how many domains raced over
   the cursor. *)
let chunk_queries = 512

let workload ?(seed = 0) ?(net_skew = 1.1) store spec ~count =
  if count < 0 then invalid_arg "Fleet.workload: negative count";
  let digests = Array.of_list (Store.digests store) in
  let nnets = Array.length digests in
  if nnets = 0 then invalid_arg "Fleet.workload: store has no ready artifacts";
  let rng = Random.State.make [| seed; 0x57a9 |] in
  let draw =
    if net_skew <= 0.0 then fun () -> Random.State.int rng nnets
    else Gen.zipf_sampler rng ~s:net_skew ~n:nnets
  in
  let net_of = Array.init count (fun _ -> draw ()) in
  let wanted = Array.make nnets 0 in
  Array.iter (fun n -> wanted.(n) <- wanted.(n) + 1) net_of;
  (* One pair pool per requested network, drawn with a per-network
     seed so the pool is independent of how the other networks were
     hit. Consumed in request order below. *)
  let pools =
    Array.mapi
      (fun n digest ->
        if wanted.(n) = 0 then [||]
        else
          match Store.oracle store digest with
          | Error _ -> [||]
            (* The network quarantined while generating (corruption is
               never fatal): its requests keep the digest with a
               placeholder pair, and {!run}'s resolution skips them. *)
          | Ok oracle ->
            let g = (Oracle.artifact oracle).Ln_route.Artifact.graph in
            Workload.generate ~seed:(seed + (0x9e3779b9 * (n + 1))) g spec
              ~count:wanted.(n))
      digests
  in
  let cursor = Array.make nnets 0 in
  Array.map
    (fun n ->
      if Array.length pools.(n) = 0 then { net = digests.(n); u = 0; v = 0 }
      else begin
        let u, v = pools.(n).(cursor.(n)) in
        cursor.(n) <- cursor.(n) + 1;
        { net = digests.(n); u; v }
      end)
    net_of

let run ?(domains = 1) ?cache_capacity store ~tier requests =
  if domains < 1 then invalid_arg "Fleet.run: domains < 1";
  let count = Array.length requests in
  let store_before = Store.stats store in
  let t0 = Unix.gettimeofday () in
  (* Sequential resolution pre-pass: every store-LRU decision (hit,
     load, eviction, quarantine) happens here, on this domain, in
     request order — deterministic accounting, and workers only ever
     see resolved oracles. One [Store.oracle] call per request keeps
     that accounting per request, but only the first instance resolved
     for each digest is pinned for the batch: a store miss reloads an
     equal oracle, and tiers answer identically from any instance, so
     pinning every reload would only hold one copy per miss alive. *)
  let pinned = Hashtbl.create 16 in
  let ok = Array.make count false in
  let skipped = ref 0 in
  for i = 0 to count - 1 do
    match Store.oracle store requests.(i).net with
    | Ok oracle ->
      ok.(i) <- true;
      if not (Hashtbl.mem pinned requests.(i).net) then
        Hashtbl.replace pinned requests.(i).net oracle
    | Error _ -> incr skipped
  done;
  let digests =
    Hashtbl.fold (fun d _ acc -> d :: acc) pinned [] |> List.sort String.compare
    |> Array.of_list
  in
  let nnets = Array.length digests in
  let oracles = Array.map (Hashtbl.find pinned) digests in
  let index = Hashtbl.create 16 in
  Array.iteri (fun n d -> Hashtbl.replace index d n) digests;
  let net_idx =
    Array.init count (fun i ->
        if ok.(i) then Hashtbl.find index requests.(i).net else -1)
  in
  (* Registry handles are registered here, on the main domain, so the
     workers' hot loop never takes the registry mutex. *)
  let mh =
    if Metrics.on () then
      Array.map (fun d -> Some (Serve.latency_metric ~digest:d tier)) digests
    else Array.make nnets None
  in
  let chunks = (count + chunk_queries - 1) / chunk_queries in
  let sums = Array.init chunks (fun _ -> Array.make nnets 0.0) in
  let next = Atomic.make 0 in
  let worker () =
    let hist = Metrics.Hist.create ~error:Serve.lat_error () in
    let clones = Hashtbl.create 8 in
    let oracle_for n =
      if tier <> Oracle.Cache then oracles.(n)
      else
        match Hashtbl.find_opt clones n with
        | Some c -> c
        | None ->
          let c = Oracle.clone ?cache_capacity oracles.(n) in
          Hashtbl.replace clones n c;
          c
    in
    let rec loop () =
      let c = Atomic.fetch_and_add next 1 in
      if c < chunks then begin
        let lo = c * chunk_queries in
        let hi = min count (lo + chunk_queries) in
        let row = sums.(c) in
        for i = lo to hi - 1 do
          let n = net_idx.(i) in
          if n >= 0 then begin
            let r = requests.(i) in
            let q0 = Unix.gettimeofday () in
            let ans = Oracle.query (oracle_for n) ~tier r.u r.v in
            let us = 1e6 *. (Unix.gettimeofday () -. q0) in
            Metrics.Hist.observe hist us;
            (match mh.(n) with
            | Some m -> Metrics.observe m us
            | None -> ());
            row.(n) <- row.(n) +. ans.Oracle.dist
          end
        done;
        loop ()
      end
    in
    loop ();
    let cache =
      Hashtbl.fold
        (fun _ clone (acc : Oracle.cache_stats) ->
          let s = Oracle.cache_stats clone in
          {
            Oracle.hits = acc.Oracle.hits + s.Oracle.hits;
            misses = acc.Oracle.misses + s.Oracle.misses;
            evictions = acc.Oracle.evictions + s.Oracle.evictions;
            entries = acc.Oracle.entries + s.Oracle.entries;
          })
        clones
        { Oracle.hits = 0; misses = 0; evictions = 0; entries = 0 }
    in
    (hist, cache)
  in
  let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
  let main_result = worker () in
  let results = main_result :: (Array.map Domain.join spawned |> Array.to_list) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let hist =
    List.fold_left
      (fun acc (h, _) -> Metrics.Hist.merge acc h)
      (Metrics.Hist.create ~error:Serve.lat_error ())
      results
  in
  let cache =
    List.fold_left
      (fun (acc : Oracle.cache_stats) (_, (s : Oracle.cache_stats)) ->
        {
          Oracle.hits = acc.Oracle.hits + s.Oracle.hits;
          misses = acc.Oracle.misses + s.Oracle.misses;
          evictions = acc.Oracle.evictions + s.Oracle.evictions;
          entries = acc.Oracle.entries + s.Oracle.entries;
        })
      { Oracle.hits = 0; misses = 0; evictions = 0; entries = 0 }
      results
  in
  let per_net_queries = Array.make nnets 0 in
  Array.iter (fun n -> if n >= 0 then per_net_queries.(n) <- per_net_queries.(n) + 1) net_idx;
  (* Ascending-chunk, then ascending-digest summation: the fixed float
     addition order behind the byte-identical checksum guarantee. *)
  let per_net = Array.make nnets 0.0 in
  for c = 0 to chunks - 1 do
    for n = 0 to nnets - 1 do
      per_net.(n) <- per_net.(n) +. sums.(c).(n)
    done
  done;
  let checksum = ref 0.0 in
  for n = 0 to nnets - 1 do
    checksum := !checksum +. per_net.(n)
  done;
  if Metrics.on () then
    Array.iter (fun d -> Metrics.incr (Serve.batches_metric ~digest:d tier)) digests;
  let store_after = Store.stats store in
  let answered = count - !skipped in
  {
    tier;
    domains;
    queries = answered;
    skipped = !skipped;
    networks = nnets;
    wall_s;
    qps = (if wall_s > 0.0 then float_of_int answered /. wall_s else 0.0);
    latency = Serve.latency_of_hist hist;
    checksum = !checksum;
    nets =
      List.init nnets (fun n ->
          {
            digest = digests.(n);
            queries = per_net_queries.(n);
            checksum = per_net.(n);
          });
    store =
      {
        store_after with
        Store.hits = store_after.Store.hits - store_before.Store.hits;
        misses = store_after.Store.misses - store_before.Store.misses;
        evictions = store_after.Store.evictions - store_before.Store.evictions;
      };
    cache;
  }

let store_hit_rate o =
  let total = o.store.Store.hits + o.store.Store.misses in
  if total = 0 then 0.0 else float_of_int o.store.Store.hits /. float_of_int total

let checksum_lines o =
  let b = Buffer.create 256 in
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "%s %.17g\n" n.digest n.checksum))
    o.nets;
  Buffer.add_string b (Printf.sprintf "total %.17g\n" o.checksum);
  Buffer.contents b

let pp_outcome ppf o =
  Format.fprintf ppf
    "tier %s @@ %d domain%s: %d queries over %d network%s in %.3fs (%.0f qps); \
     latency us p50 %.1f p90 %.1f p99 %.1f max %.1f; store %d/%d hits (%d \
     evictions)"
    (Oracle.tier_name o.tier) o.domains
    (if o.domains = 1 then "" else "s")
    o.queries o.networks
    (if o.networks = 1 then "" else "s")
    o.wall_s o.qps o.latency.Serve.p50_us o.latency.Serve.p90_us
    o.latency.Serve.p99_us o.latency.Serve.max_us o.store.Store.hits
    (o.store.Store.hits + o.store.Store.misses)
    o.store.Store.evictions;
  if o.skipped > 0 then Format.fprintf ppf "; %d skipped" o.skipped;
  if o.cache.Oracle.hits + o.cache.Oracle.misses > 0 then
    Format.fprintf ppf "; source cache %d/%d hits" o.cache.Oracle.hits
      (o.cache.Oracle.hits + o.cache.Oracle.misses)
