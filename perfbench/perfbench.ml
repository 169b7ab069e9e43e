(* Seeded end-to-end benchmark over lightnet's public calls.

   One process runs one workload for a fixed number of seconds and
   prints, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics when untraced, the per-layer metrics when traced
   ([--trace 1]). Every input (graphs, request arrays, construction
   rngs) is derived from [--seed]; the library only receives them.

   Workloads (sizes in [full] below; BENCHMARK.json says why each was
   chosen, WORKLOADS.md which layers it stresses):
   - build-geo: random-geometric graphs through the whole network
     build (spanner, SLT, MST, artifact, store add), then the first
     batch served on the new network;
   - spanner-heavy: Light_spanner.build on heavy-tailed graphs whose
     weight range fills every bucket case, then a first served batch;
   - serve-hot: a store that keeps every network resident, a Zipf
     batch served by the cache tier on 2 domains;
   - serve-churn: the same networks in a store that holds half of
     them, so its batches pay artifact reloads.

   End-to-end times are scaled by the host speed measured next to each
   operation (see "host speed" below). Spans are recorded only in
   traced runs, around the calls into each layer, kept in memory and
   written to .perfbench/ at exit. *)

open Lightnet

let now = Unix.gettimeofday
let workload_names = [ "build-geo"; "spanner-heavy"; "serve-hot"; "serve-churn" ]
(* Domains for the measured fleet batches. Only serve-hot gains from a
   second one. serve-churn's wall is its sequential resolve pre-pass
   (2 domains measured 1.03x), and a build's first batch is two
   512-request chunks: there a second domain would only tie the
   latency tail to the other core's load. *)
let fleet_domains workload = if workload = "serve-hot" then 2 else 1

type sizes = {
  geo_n : int;
  geo_pool : int;  (** build-geo networks, rebuilt round-robin *)
  heavy_n : int;
  heavy_degree : float;
  heavy_pool : int;
  serve_n : int;
  serve_nets : int;
  hot_capacity : int;
  hot_batches : int;  (** distinct request batches, served round-robin *)
  hot_requests : int;
  churn_capacity : int;
  churn_batches : int;
  churn_requests : int;
  tail_requests : int;  (** first batch served after each build *)
  certify_sample : int;
  setups : int;  (** set-ups per run; setup_s is their median *)
}

let full =
  {
    geo_n = 400;
    geo_pool = 12;
    heavy_n = 800;
    heavy_degree = 32.0;
    heavy_pool = 6;
    serve_n = 400;
    serve_nets = 8;
    hot_capacity = 8;
    hot_batches = 1;
    hot_requests = 25_000;
    churn_capacity = 4;
    churn_batches = 12;
    churn_requests = 1_000;
    tail_requests = 1_000;
    certify_sample = 200;
    setups = 6;
  }

let smoke =
  {
    geo_n = 100;
    geo_pool = 2;
    heavy_n = 200;
    heavy_degree = 16.0;
    heavy_pool = 2;
    serve_n = 100;
    serve_nets = 3;
    hot_capacity = 3;
    hot_batches = 1;
    hot_requests = 3_000;
    churn_capacity = 1;
    churn_batches = 2;
    churn_requests = 500;
    tail_requests = 200;
    certify_sample = 50;
    setups = 2;
  }

(* Largest share of a wall time that the layer spans along its
   blocking steps may leave unexplained. Builds are covered call by
   call; a served batch is re-timed as its resolve pre-pass plus
   per-network Serve.run batches, which skip the fleet's chunk
   bookkeeping. A miss is reported, not failed: it says the timing
   was disturbed, not that an output was wrong. *)
let build_attrib_tolerance = 0.02
let serve_attrib_tolerance = 0.15

let within tolerance residual =
  if residual <= tolerance then Printf.sprintf "within %g" tolerance
  else Printf.sprintf "OVER the %g tolerance" tolerance

type cfg = { workload : string; seed : int; seconds : float; trace : bool; sz : sizes }

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (build-geo|spanner-heavy|serve-hot|serve-churn) \
     --seed N --seconds S --trace 0|1 [--smoke]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and sz = ref full in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workload_names ->
      workload := Some w;
      go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest
      when match float_of_string_opt s with Some x -> x > 0.0 | None -> false ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      go rest
    | "--smoke" :: rest ->
      sz := smoke;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds ->
    { workload; seed; seconds; trace = !trace; sz = !sz }
  | _ -> usage ()

(* ---------- small statistics ---------- *)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den > 0.0 then num /. den else 0.0

(* ---------- host speed ---------- *)

(* The benchmark runs on shared hosts whose speed drifts by tens of
   per cent within minutes: on a 2-core Xeon VM one probe below took
   0.010 to 0.017 s within a quarter of an hour, and a build's wall
   time moved with it. So every end-to-end time is scaled by the host
   speed measured next to it. Before and after each timed operation
   the benchmark runs [probe], a fixed, allocation-free Dijkstra over a
   fixed graph that shares no code with lightnet, and reports the
   operation's wall × probe_ref_s ÷ (mean of the two probes): its time
   on a host where one probe takes probe_ref_s. A lightnet change
   moves the operation and not the probe. The unscaled walls are
   printed next to the result. *)

let probe_ref_s = 0.010

(* 2^15 vertices, each joined to its ring and row neighbours (row
   width 181) and to two random vertices, weights in [1, 2). *)
let probe_n = 1 lsl 15
let probe_degree = 6

let probe_off, probe_dst, probe_w =
  let st = Random.State.make [| 0x9b0be |] in
  let dst = Array.make (probe_n * probe_degree) 0 in
  let w = Array.make (probe_n * probe_degree) 0.0 in
  for v = 0 to probe_n - 1 do
    List.iteri
      (fun k u ->
        dst.((v * probe_degree) + k) <- u;
        w.((v * probe_degree) + k) <- 1.0 +. Random.State.float st 1.0)
      [
        (v + 1) mod probe_n;
        (v + probe_n - 1) mod probe_n;
        (v + 181) mod probe_n;
        (v + probe_n - 181) mod probe_n;
        Random.State.int st probe_n;
        Random.State.int st probe_n;
      ]
  done;
  (Array.init (probe_n + 1) (fun v -> v * probe_degree), dst, w)

let probe_dist = Array.make probe_n infinity

(* A binary heap of (key, vertex), one entry per relaxation at most. *)
let heap_v = Array.make ((probe_n * probe_degree) + 1) 0
let heap_key = Array.make ((probe_n * probe_degree) + 1) 0.0

let probe () =
  let t0 = now () in
  Array.fill probe_dist 0 probe_n infinity;
  let size = ref 0 in
  let push v d =
    let i = ref !size in
    incr size;
    while !i > 0 && heap_key.((!i - 1) / 2) > d do
      let p = (!i - 1) / 2 in
      heap_v.(!i) <- heap_v.(p);
      heap_key.(!i) <- heap_key.(p);
      i := p
    done;
    heap_v.(!i) <- v;
    heap_key.(!i) <- d
  in
  probe_dist.(0) <- 0.0;
  push 0 0.0;
  while !size > 0 do
    let v = heap_v.(0) and d = heap_key.(0) in
    decr size;
    let last_v = heap_v.(!size) and last_key = heap_key.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap_key.(l + 1) < heap_key.(l) then l + 1 else l in
        if heap_key.(c) < last_key then begin
          heap_v.(!i) <- heap_v.(c);
          heap_key.(!i) <- heap_key.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap_v.(!i) <- last_v;
    heap_key.(!i) <- last_key;
    if d <= probe_dist.(v) then
      for e = probe_off.(v) to probe_off.(v + 1) - 1 do
        let u = probe_dst.(e) and nd = d +. probe_w.(e) in
        if nd < probe_dist.(u) then begin
          probe_dist.(u) <- nd;
          push u nd
        end
      done
  done;
  now () -. t0

let probes : float list ref = ref []

(* [f ()] with its wall time and the host-speed scale for that time:
   probe_ref_s over the mean of the probes just before and after. *)
let scaled f =
  let p0 = probe () in
  let t0 = now () in
  let x = f () in
  let wall = now () -. t0 in
  let p1 = probe () in
  probes := p0 :: p1 :: !probes;
  (x, wall, probe_ref_s /. ((p0 +. p1) /. 2.0))

(* A time sample: (wall, scale). *)
let scaled_median xs = median (List.map (fun (t, k) -> t *. k) xs)
let wall_median xs = median (List.map fst xs)

(* Samples kept per network: each network's [summary] over its
   repeats, then the mean over networks, so that every network of the
   seed weighs the same however often the run rebuilt it. *)
let per_net summary (samples : (float * float) list array) =
  mean (List.filter_map (fun l -> if l = [] then None else Some (summary l)) (Array.to_list samples))

let count_samples samples = Array.fold_left (fun n l -> n + List.length l) 0 samples
let unscaled : (string * float) list ref = ref []

(* ---------- metrics and checks ---------- *)

type metric = { name : string; value : float; unit : string; samples : int }

let metrics : metric list ref = ref []
let put name unit samples value = metrics := { name; value; unit; samples } :: !metrics
let failures : string list ref = ref []

let check name ok =
  if not ok then begin
    failures := name :: !failures;
    Printf.printf "check failed: %s\n%!" name
  end

(* ---------- spans ---------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  eng : Engine.perf;  (** engine counters accumulated inside the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans = ref [ 0 ]
let span_ids = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr span_ids;
    let id = !span_ids and parent = List.hd !open_spans in
    open_spans := id :: !open_spans;
    let before = Engine.snapshot_totals () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; t0; t1; eng = Engine.totals_since before } :: !spans)
      f
  end

let dur s = s.t1 -. s.t0
let spans_named name = List.filter (fun s -> s.name = name) !spans

let self_time s =
  List.fold_left (fun acc c -> if c.parent = s.id then acc -. dur c else acc) (dur s) !spans

(* ---------- inputs ---------- *)

let rng cfg tag i = Random.State.make [| cfg.seed; tag; i |]

let geo_graph cfg n i =
  fst (Gen.random_geometric (rng cfg 0x6e0 i) ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ())

let heavy_graph cfg i =
  let n = cfg.sz.heavy_n in
  Gen.heavy_tailed (rng cfg 0x4ea i) ~n ~p:(cfg.sz.heavy_degree /. float_of_int (n - 1)) ~range:1e6 ()

(* ---------- files ---------- *)

let root_dir = ".perfbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---------- one network build ---------- *)

type built = {
  g : Graph.t;
  sp : Light_spanner.t;
  slt : Slt.t option;
  digest : string;  (** store digest *)
  edges_digest : string;  (** of the spanner's edge set *)
  spanner_s : float;
  path_s : float;  (** spanner through store add *)
}

let edges_digest edges = Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int edges)))

(* spanner -> SLT (optional) -> Kruskal -> artifact -> save -> store
   add. Without an SLT the MST fills the artifact's tree slot, so the
   spanner can still be served. *)
let build_network cfg ~with_slt store ~tmp g i =
  span "pipeline" (fun () ->
      let t0 = now () in
      let sp =
        span "spanner" (fun () ->
            Light_spanner.build ~rng:(rng cfg 0x5a i) g ~k:2 ~epsilon:0.25)
      in
      let spanner_s = now () -. t0 in
      let slt =
        if with_slt then
          Some (span "slt" (fun () -> Slt.build ~rng:(rng cfg 0x51 i) g ~rt:0 ~epsilon:0.5))
        else None
      in
      let mst = span "kruskal" (fun () -> Mst_seq.kruskal g) in
      let art =
        span "artifact.make" (fun () ->
            Artifact.make ~graph:g ~slt_root:0
              ~spanner_stretch:sp.Light_spanner.stretch_bound
              ~spanner_edges:sp.Light_spanner.edges
              ~slt_edges:(match slt with Some t -> t.Slt.edges | None -> mst)
              ~mst_edges:mst
              ~params:[ ("bench", cfg.workload); ("net", string_of_int i) ]
              ())
      in
      span "artifact.save" (fun () -> Artifact.save tmp art);
      let added = span "store.add" (fun () -> Store.add store tmp) in
      let path_s = now () -. t0 in
      match added with
      | Error why -> failwith ("store add: " ^ why)
      | Ok (digest, _) ->
        {
          g;
          sp;
          slt;
          digest;
          edges_digest = edges_digest sp.Light_spanner.edges;
          spanner_s;
          path_s;
        })

let rounds b =
  Ledger.total b.sp.Light_spanner.ledger
  + match b.slt with Some t -> Ledger.total t.Slt.ledger | None -> 0

(* Network-level correctness, outside every timed region: certified
   spanner stretch, the SLT's promises, and the artifact's canonical
   encoding. Returns the certified stretch. *)
let certify_network b ~store_file ~tmp =
  let stretch = Stats.max_edge_stretch b.g b.sp.Light_spanner.edges in
  check "spanner stretch within its bound" (stretch <= b.sp.Light_spanner.stretch_bound +. 1e-9);
  (match b.slt with
  | None -> ()
  | Some t ->
    check "SLT root stretch within its bound"
      (Stats.tree_root_stretch b.g t.Slt.tree ~root:0 <= t.Slt.stretch_bound +. 1e-9);
    check "SLT lightness within its bound"
      (Stats.lightness b.g t.Slt.edges <= t.Slt.lightness_bound +. 1e-9));
  let bytes = read_file store_file in
  Artifact.save tmp (Artifact.load store_file);
  check "artifact save->load->save byte-identical" (read_file tmp = bytes);
  Sys.remove tmp;
  stretch

let store_file store digest = Filename.concat (Store.dir store) (digest ^ ".artifact")

(* Build-side end-to-end metrics over one set of distinct networks. *)
let put_network_metrics ~build_s ~builds (nets : (built * float) list) =
  let avg f = mean (List.map f nets) in
  let n = List.length nets in
  put "build_s" "s" builds build_s;
  put "rounds" "rounds" n (avg (fun (b, _) -> float_of_int (rounds b)));
  put "spanner_edges" "edges" n
    (avg (fun (b, _) -> float_of_int (List.length b.sp.Light_spanner.edges)));
  put "spanner_lightness" "ratio" n
    (avg (fun (b, _) -> Stats.lightness b.g b.sp.Light_spanner.edges));
  (* A maximum over edges: mostly one value with rare jumps, so the
     median network keeps it steady across seeds. *)
  put "spanner_stretch" "ratio" n (median (List.map snd nets))

(* ---------- serving ---------- *)

let same_checksums (a : Fleet.outcome) (b : Fleet.outcome) =
  Fleet.checksum_lines a = Fleet.checksum_lines b

(* Cache-tier answers on a sample of each network's pairs must stay
   within the artifact's promised stretch. *)
let certify_cache store (requests : Fleet.request array) sample =
  List.iter
    (fun d ->
      let pairs =
        Array.to_list requests
        |> List.filter (fun (r : Fleet.request) -> r.Fleet.net = d)
        |> List.map (fun (r : Fleet.request) -> (r.Fleet.u, r.Fleet.v))
        |> Array.of_list
      in
      match Store.oracle store d with
      | Error why -> check ("resolve " ^ d ^ ": " ^ why) false
      | Ok o ->
        if Array.length pairs > 0 then begin
          let bound = (Oracle.artifact o).Artifact.spanner_stretch in
          let c = Serve.certify ~sample o ~tier:Oracle.Cache ~bound pairs in
          check "cache tier within the promised stretch"
            (c.Serve.report.Monitor.verdict = Monitor.Correct)
        end)
    (Store.digests store)

(* Traced decomposition of one batch: a 1-domain Fleet.run, then the
   same batch re-timed as its blocking steps — the resolve pre-pass
   replayed through Store.oracle from the same LRU state, and the
   queries as per-network Serve.run batches on fresh clones of the
   resolved oracles. Also times the store-miss parts (artifact load,
   oracle create) and tier A on one resident oracle. *)
let serve_layers store (requests : Fleet.request array) =
  (* An LRU's end state depends only on the tail of the batch, so after
     one untimed pass the timed run and the replay start alike. *)
  ignore (Fleet.run ~domains:1 store ~tier:Oracle.Cache requests);
  let o1 = span "fleet.run_d1" (fun () -> Fleet.run ~domains:1 store ~tier:Oracle.Cache requests) in
  let hits = ref [] and misses = ref [] in
  let first = Hashtbl.create 8 and pairs = Hashtbl.create 8 in
  (* Like Fleet.run's pre-pass, keep every resolved oracle alive for
     the batch: reloaded copies stay pinned, and the GC pays for them. *)
  let pinned = Array.make (Array.length requests) None and next = ref 0 in
  let prepass_s =
    span "fleet.prepass" (fun () ->
        Array.fold_left
          (fun acc (r : Fleet.request) ->
            let before = (Store.stats store).Store.misses in
            let t0 = now () in
            let res = Store.oracle store r.Fleet.net in
            let dt = now () -. t0 in
            pinned.(!next) <- Result.to_option res;
            incr next;
            if (Store.stats store).Store.misses > before then misses := dt :: !misses
            else hits := dt :: !hits;
            (match res with
            | Ok o ->
              if not (Hashtbl.mem first r.Fleet.net) then Hashtbl.replace first r.Fleet.net o;
              Hashtbl.replace pairs r.Fleet.net
                ((r.Fleet.u, r.Fleet.v)
                :: Option.value ~default:[] (Hashtbl.find_opt pairs r.Fleet.net))
            | Error _ -> ());
            acc +. dt)
          0.0 requests)
  in
  let query_s =
    span "fleet.query" (fun () ->
        Hashtbl.fold
          (fun d o acc ->
            let ps = Array.of_list (List.rev (Hashtbl.find pairs d)) in
            let t0 = now () in
            ignore (Serve.run (Oracle.clone o) ~tier:Oracle.Cache ps);
            acc +. (now () -. t0))
          first 0.0)
  in
  ignore (Sys.opaque_identity pinned);
  let files = List.map (store_file store) (Store.digests store) in
  let loaded =
    List.map
      (fun f ->
        let t0 = now () in
        let a = Artifact.load f in
        (a, now () -. t0))
      files
  in
  let create_s =
    List.map (fun (a, _) -> let t0 = now () in ignore (Oracle.create a); now () -. t0) loaded
  in
  let tier_a_us =
    let d, ps =
      Hashtbl.fold
        (fun d ps (bd, bps) -> if List.length ps > List.length bps then (d, ps) else (bd, bps))
        pairs ("", [])
    in
    let ps = Array.of_list (List.filteri (fun i _ -> i < 300) (List.rev ps)) in
    let o = Hashtbl.find first d in
    let out = Serve.run o ~tier:Oracle.Spanner ps in
    1e6 *. ratio out.Serve.wall_s (float_of_int out.Serve.queries)
  in
  let residual = Float.abs (o1.Fleet.wall_s -. (prepass_s +. query_s)) /. o1.Fleet.wall_s in
  Printf.printf
    "serve attribution: d1 wall %.4fs = prepass %.4fs + queries %.4fs (residual %.1f%%, %s)\n%!"
    o1.Fleet.wall_s prepass_s query_s (100.0 *. residual)
    (within serve_attrib_tolerance residual);
  put "fleet.prepass_s" "s" 1 prepass_s;
  put "fleet.query_s" "s" 1 query_s;
  put "fleet.qps_d1" "1/s" 1 o1.Fleet.qps;
  let o2 = span "fleet.run_d2" (fun () -> Fleet.run ~domains:2 store ~tier:Oracle.Cache requests) in
  put "fleet.speedup_d2" "ratio" 1 (ratio o2.Fleet.qps o1.Fleet.qps);
  put "artifact.load_ms" "ms" (List.length loaded) (1e3 *. median (List.map snd loaded));
  put "oracle.create_ms" "ms" (List.length create_s) (1e3 *. median create_s);
  put "store.resolve_miss_ms" "ms" (List.length !misses) (if !misses = [] then 0.0 else 1e3 *. mean !misses);
  put "store.resolve_hit_us" "us" (List.length !hits) (if !hits = [] then 0.0 else 1e6 *. mean !hits);
  put "serve.tier_a_us" "us" 300 tier_a_us;
  residual

(* Per-layer figures read off the measured batches. *)
let put_batch_layers (batches : Fleet.outcome list) =
  let n = List.length batches in
  let med f = median (List.map f batches) in
  put "fleet.p50_us" "us" n (med (fun o -> o.Fleet.latency.Serve.p50_us));
  put "serve.cache_hit_rate" "ratio" n
    (med (fun o ->
         let c = o.Fleet.cache in
         ratio (float_of_int c.Oracle.hits) (float_of_int (c.Oracle.hits + c.Oracle.misses))));
  put "store.hit_rate" "ratio" n (med Fleet.store_hit_rate);
  put "store.misses" "count" n (med (fun o -> float_of_int o.Fleet.store.Store.misses));
  put "store.evictions" "count" n (med (fun o -> float_of_int o.Fleet.store.Store.evictions))

(* ---------- per-layer metrics from spans ---------- *)

let put_build_layers () =
  let calls = spans_named "spanner" @ spans_named "slt" in
  let builds = float_of_int (max 1 (List.length (spans_named "pipeline"))) in
  let eng = Engine.create_perf () in
  List.iter (fun s -> Engine.add_perf ~into:eng s.eng) calls;
  let call_s = List.fold_left (fun a s -> a +. dur s) 0.0 calls in
  let n = List.length calls in
  put "engine.wall_s" "s" n (eng.Engine.wall /. builds);
  put "engine.share" "ratio" n (ratio eng.Engine.wall call_s);
  put "engine.msgs_per_s" "1/s" n (Engine.messages_per_sec eng);
  put "engine.messages" "count" n (float_of_int eng.Engine.messages /. builds);
  put "engine.words" "count" n (float_of_int eng.Engine.words /. builds);
  put "engine.steps" "count" n (float_of_int eng.Engine.steps /. builds);
  put "engine.skip_ratio" "ratio" n (Engine.skip_ratio eng);
  put "engine.arena_grows" "count" n (float_of_int eng.Engine.arena_grows /. builds);
  let avg_dur name =
    match spans_named name with [] -> 0.0 | ss -> mean (List.map dur ss)
  in
  let avg_self name =
    match spans_named name with
    | [] -> 0.0
    | ss -> mean (List.map (fun s -> dur s -. s.eng.Engine.wall) ss)
  in
  let count name = List.length (spans_named name) in
  put "spanner.s" "s" (count "spanner") (avg_dur "spanner");
  put "spanner.self_s" "s" (count "spanner") (avg_self "spanner");
  put "slt.s" "s" (count "slt") (avg_dur "slt");
  put "slt.self_s" "s" (count "slt") (avg_self "slt");
  List.iter
    (fun (metric, name) -> put metric "s" (count name) (avg_dur name))
    [
      ("graph.kruskal_s", "kruskal");
      ("artifact.make_s", "artifact.make");
      ("artifact.save_s", "artifact.save");
      ("store.add_s", "store.add");
    ];
  (* Attribution: each build's wall against its layer calls. *)
  let residuals =
    List.map (fun s -> ratio (self_time s) (dur s)) (spans_named "pipeline")
  in
  let worst = List.fold_left Float.max 0.0 residuals in
  Printf.printf "build attribution: worst unexplained share %.2f%% over %d builds (%s)\n%!"
    (100.0 *. worst) (List.length residuals)
    (within build_attrib_tolerance worst);
  worst

let put_network_layers (nets : built list) =
  let n = List.length nets in
  let avg f = if nets = [] then 0.0 else mean (List.map (fun b -> float_of_int (f b)) nets) in
  let sp f = avg (fun b -> f b.sp) in
  let slt f = avg (fun b -> match b.slt with Some t -> f t | None -> 0) in
  let fslt f =
    if nets = [] then 0.0
    else mean (List.map (fun b -> match b.slt with Some t -> f b t | None -> 0.0) nets)
  in
  put "spanner.rounds_native" "rounds" n (sp (fun s -> Ledger.native_total s.Light_spanner.ledger));
  put "spanner.rounds_charged" "rounds" n (sp (fun s -> Ledger.charged_total s.Light_spanner.ledger));
  put "spanner.light_bucket_edges" "edges" n (sp (fun s -> s.Light_spanner.light_bucket_edges));
  put "spanner.bucket_edges" "edges" n (sp (fun s -> s.Light_spanner.bucket_edges));
  put "spanner.buckets_case1" "count" n (sp (fun s -> s.Light_spanner.buckets_case1));
  put "spanner.buckets_case2" "count" n (sp (fun s -> s.Light_spanner.buckets_case2));
  put "slt.rounds_native" "rounds" n (slt (fun t -> Ledger.native_total t.Slt.ledger));
  put "slt.rounds_charged" "rounds" n (slt (fun t -> Ledger.charged_total t.Slt.ledger));
  put "slt.h_edges" "edges" n (slt (fun t -> List.length t.Slt.h_edges));
  put "slt.break_points" "count" n (slt (fun t -> List.length t.Slt.break_positions));
  put "slt_lightness" "ratio" n (fslt (fun b t -> Stats.lightness b.g t.Slt.edges));
  put "slt_root_stretch" "ratio" n (fslt (fun b t -> Stats.tree_root_stretch b.g t.Slt.tree ~root:0))

(* Standalone layer calls on one of the workload's graphs: the SPT
   that dominates Slt.build, and the MST + Euler tour both builds
   start from. *)
let put_standalone_layers cfg ~hub_sssp g =
  span "dist_mst_euler" (fun () -> ignore (Euler_dist.run (Dist_mst.run g) ~rt:0));
  let s = List.hd (spans_named "dist_mst_euler") in
  put "mst.dist_mst_euler_s" "s" 1 (dur s);
  put "mst.engine_s" "s" 1 s.eng.Engine.wall;
  let hub_s, hub_engine_s, hub_messages, hubs =
    if not hub_sssp then (0.0, 0.0, 0, 0)
    else begin
      let bfs, _ = Bfs.tree g ~root:0 in
      let h = span "hub_sssp" (fun () -> Hub_sssp.run ~rng:(rng cfg 0x4b 0) g ~bfs ~src:0) in
      let s = List.hd (spans_named "hub_sssp") in
      (dur s, s.eng.Engine.wall, s.eng.Engine.messages, List.length h.Hub_sssp.hubs)
    end
  in
  let runs = if hub_sssp then 1 else 0 in
  put "aspt.hub_sssp_s" "s" runs hub_s;
  put "aspt.hub_sssp_engine_s" "s" runs hub_engine_s;
  put "aspt.hub_sssp_messages" "count" runs (float_of_int hub_messages);
  put "aspt.hubs" "count" runs (float_of_int hubs)

(* ---------- workloads ---------- *)

type outcome = { attempted : int; failed : int }

(* A workload sets up [setups] times in a row and keeps the first
   set-up's result; [drop] discards the others and [rescaled] is told
   each set-up's host scale. Returns the result, setup_s (the median of
   the host-scaled set-up times) and its sample count. The dropped
   set-ups' garbage is collected before the timed loop, so that it
   does not slow the measured operations: a user who sets up once
   leaves none. *)
let set_up cfg ?(rescaled = ignore) ~make ~drop () =
  let times = ref [] and first = ref None in
  for r = 0 to cfg.sz.setups - 1 do
    let x, wall, k = scaled (fun () -> make r) in
    times := (wall, k) :: !times;
    rescaled k;
    if r = 0 then first := Some x else drop x
  done;
  Gc.full_major ();
  unscaled := ("setup_s", wall_median !times) :: !unscaled;
  (Option.get !first, scaled_median !times, List.length !times)

(* build-geo and spanner-heavy: each operation builds one network of
   the pool (round-robin, at least one full pass) and serves a first
   batch on it from a fresh store. *)
let run_build cfg ~geo =
  let sz = cfg.sz in
  let pool = if geo then sz.geo_pool else sz.heavy_pool in
  let work = Filename.concat root_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  rm_rf work;
  Unix.mkdir work 0o755;
  let graphs, setup_s, setups =
    set_up cfg ~drop:ignore
      ~make:(fun r ->
        let graphs =
          Array.init pool (fun i -> if geo then geo_graph cfg sz.geo_n i else heavy_graph cfg i)
        in
        (* Warm-up: one untimed build, so lazy set-up and heap growth
           are paid here rather than by the first timed build. *)
        let dir = Filename.concat work (Printf.sprintf "warm%d" r) in
        ignore
          (build_network cfg ~with_slt:geo (Store.open_dir ~capacity:1 dir)
             ~tmp:(dir ^ ".artifact") graphs.(0) 0);
        rm_rf dir;
        Sys.remove (dir ^ ".artifact");
        graphs)
      ()
  in
  Printf.printf "%s: %d networks, n=%d, avg m=%.0f\n%!" cfg.workload pool
    (Graph.n graphs.(0))
    (mean (Array.to_list (Array.map (fun g -> float_of_int (Graph.m g)) graphs)));
  let firsts = Array.make pool None in
  (* Every measured build and first batch as (value, host scale), per
     network. *)
  let build_times = Array.make pool [] and untraced = Array.make pool [] in
  let tail_qps = Array.make pool [] and tail_p99 = Array.make pool [] in
  let tails = Array.make pool [] and bad = Array.make pool 0 in
  let ops = Array.make pool 0 and failed = ref 0 in
  let one k ~traced =
    let i = k mod pool in
    let dir = Filename.concat work (Printf.sprintf "b%d-%b" k traced) in
    let tmp = dir ^ ".artifact" in
    tracing := traced;
    let result, _, scale =
      scaled @@ fun () ->
      try
        let store = Store.open_dir ~capacity:1 dir in
        let b = build_network cfg ~with_slt:geo store ~tmp graphs.(i) i in
        Sys.remove tmp;
        let requests =
          span "fleet.workload" (fun () ->
              Fleet.workload ~seed:cfg.seed store (Workload.Zipf 1.1) ~count:sz.tail_requests)
        in
        let o =
          span "fleet.run" (fun () ->
              Fleet.run ~domains:(fleet_domains cfg.workload) store ~tier:Oracle.Cache requests)
        in
        Some (b, store, requests, o)
      with e ->
        Printf.printf "build %d failed: %s\n%!" k (Printexc.to_string e);
        None
    in
    tracing := false;
    ops.(i) <- ops.(i) + 1;
    match result with
    | None -> incr failed
    | Some (b, store, requests, o) ->
      let t = if geo then b.path_s else b.spanner_s in
      if traced || not cfg.trace then begin
        build_times.(i) <- (t, scale) :: build_times.(i);
        tail_qps.(i) <- (o.Fleet.qps, 1.0 /. scale) :: tail_qps.(i);
        tail_p99.(i) <- (o.Fleet.latency.Serve.p99_us, scale) :: tail_p99.(i)
      end
      else untraced.(i) <- (t, scale) :: untraced.(i);
      tails.(i) <- o :: tails.(i);
      (match firsts.(i) with
      | None -> firsts.(i) <- Some (b, store, requests)
      | Some (b0, _, _) ->
        let ok = b.edges_digest = b0.edges_digest in
        check "rebuild reproduces the spanner edge set" ok;
        if not ok then incr failed;
        rm_rf dir)
  in
  let t_start = now () in
  let k = ref 0 in
  while !k < pool || now () -. t_start < cfg.seconds do
    (* Traced runs pair every traced build with an untraced one of the
       same network, so the tracing overhead is measured in-process. *)
    if cfg.trace then begin
      let first = !k / pool mod 2 = 0 in
      one !k ~traced:first;
      one !k ~traced:(not first)
    end
    else one !k ~traced:false;
    incr k
  done;
  Printf.printf "%s: %d builds in %.2fs\n%!" cfg.workload (Array.fold_left ( + ) 0 ops)
    (now () -. t_start);
  (* Correctness, outside the timed region. *)
  let t_checks = now () in
  let certified =
    List.filter_map
      (fun i ->
        match firsts.(i) with
        | None -> None
        | Some (b, store, requests) ->
          let nfail = List.length !failures in
          let stretch =
            certify_network b ~store_file:(store_file store b.digest)
              ~tmp:(Filename.concat work "resave.artifact")
          in
          let reference = Fleet.run ~domains:1 store ~tier:Oracle.Cache requests in
          List.iter
            (fun o -> check "fleet checksums match the 1-domain reference" (same_checksums o reference))
            tails.(i);
          certify_cache store requests sz.certify_sample;
          if List.length !failures > nfail then bad.(i) <- ops.(i);
          Some (b, stretch))
      (List.init pool Fun.id)
  in
  Printf.printf "%s: checks in %.2fs\n%!" cfg.workload (now () -. t_checks);
  let failed = !failed + Array.fold_left ( + ) 0 bad in
  let attempted = Array.fold_left ( + ) 0 ops in
  if not cfg.trace then begin
    put "setup_s" "s" setups setup_s;
    let n = count_samples build_times in
    put_network_metrics ~build_s:(per_net scaled_median build_times) ~builds:n certified;
    put "qps" "1/s" n (per_net scaled_median tail_qps);
    put "p99_us" "us" n (per_net scaled_median tail_p99);
    unscaled :=
      [
        ("build_s", per_net wall_median build_times);
        ("qps", per_net wall_median tail_qps);
        ("p99_us", per_net wall_median tail_p99);
      ]
      @ !unscaled
  end
  else begin
    tracing := true;
    let worst = put_build_layers () in
    put_network_layers (List.map fst certified);
    put_standalone_layers cfg ~hub_sssp:geo graphs.(0);
    let _, store0, requests0 = Option.get firsts.(0) in
    let residual = serve_layers store0 requests0 in
    put_batch_layers tails.(0);
    put "attrib.residual_share" "ratio" 1 (Float.max worst residual);
    (* Traced and untraced builds come in pairs of the same network. *)
    let u = per_net scaled_median untraced in
    put "trace.overhead_share" "ratio" (count_samples untraced)
      (ratio (per_net scaled_median build_times -. u) u);
    tracing := false
  end;
  rm_rf work;
  { attempted; failed }

(* serve-hot and serve-churn: set up a store of geo networks and draw
   [k] distinct request batches (drawing resolves each requested
   network, which warms the store), then serve the batches round-robin,
   closed-loop, until the time is up. Each batch's 1-domain reference
   run comes after, outside the timed region. Several short batches
   average out the seed's particular network and pair draws where one
   long batch would pin too many reloaded oracles (serve-churn). *)
let run_serve cfg ~capacity ~k ~count =
  let sz = cfg.sz in
  let domains = fleet_domains cfg.workload in
  let work = Filename.concat root_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  rm_rf work;
  Unix.mkdir work 0o755;
  (* Per network: every set-up build as (wall, host scale of its
     set-up), and its spanner's edge digest for the rebuild check. *)
  let build_times = Array.make sz.serve_nets [] and pending = ref [] in
  let digests = Array.make sz.serve_nets [] in
  let (nets, store, requests), setup_s, setups =
    set_up cfg
      ~drop:(fun (_, store, _) -> rm_rf (Store.dir store))
      ~rescaled:(fun k ->
        List.iter (fun (i, t) -> build_times.(i) <- (t, k) :: build_times.(i)) !pending;
        pending := [])
      ~make:(fun r ->
        tracing := cfg.trace;
        let dir = Filename.concat work (Printf.sprintf "store%d" r) in
        let target = Store.open_dir ~capacity dir in
        let tmp = Filename.concat work "new.artifact" in
        (* Served networks carry the MST in the tree slot: the SLT is
           build-geo's subject, and would make each set-up cost as much
           as a build-geo run. *)
        let nets =
          List.init sz.serve_nets (fun i ->
              let b = build_network cfg ~with_slt:false target ~tmp (geo_graph cfg sz.serve_n i) i in
              Sys.remove tmp;
              pending := (i, b.path_s) :: !pending;
              digests.(i) <- b.edges_digest :: digests.(i);
              b)
        in
        let store = span "store.open" (fun () -> Store.open_dir ~capacity ~cache_capacity:64 dir) in
        let requests =
          Array.init k (fun j ->
              span "fleet.workload" (fun () ->
                  Fleet.workload ~seed:((cfg.seed * k) + j) ~net_skew:1.1 store (Workload.Zipf 1.1)
                    ~count))
        in
        tracing := false;
        (nets, store, requests))
      ()
  in
  (* Warm-up: one untimed batch, so that the heap has grown to a
     batch's size before timing. *)
  ignore (Fleet.run ~domains store ~tier:Oracle.Cache requests.(0));
  Printf.printf "%s: %d networks (n=%d), capacity %d, %d batches of %d requests\n%!" cfg.workload
    sz.serve_nets sz.serve_n capacity k count;
  (* Per batch: the measured outcomes, and in traced runs the untraced
     ones. Traced runs alternate whole rounds of the k batches. *)
  let measured = Array.make k [] and untraced = Array.make k [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = now () in
  let b = ref 0 in
  while !b < (if cfg.trace then 2 * k else k) || now () -. t_start < cfg.seconds do
    let j = !b mod k in
    let traced = cfg.trace && !b / k mod 2 = 0 in
    tracing := traced;
    let o, _, scale =
      scaled (fun () ->
          span "fleet.run" (fun () -> Fleet.run ~domains store ~tier:Oracle.Cache requests.(j)))
    in
    tracing := false;
    attempted := !attempted + Array.length requests.(j);
    failed := !failed + o.Fleet.skipped;
    if traced || not cfg.trace then measured.(j) <- (o, scale) :: measured.(j)
    else untraced.(j) <- (o, scale) :: untraced.(j);
    incr b
  done;
  Printf.printf "%s: %d batches in %.2fs\n%!" cfg.workload !b (now () -. t_start);
  (* Correctness, outside the timed region. *)
  let t_checks = now () in
  Array.iteri
    (fun j reqs ->
      let reference = Fleet.run ~domains:1 store ~tier:Oracle.Cache reqs in
      List.iter
        (fun o ->
          let ok = same_checksums o reference in
          check "fleet checksums match the 1-domain reference" ok;
          if not ok then failed := !failed + o.Fleet.queries)
        (List.map fst (measured.(j) @ untraced.(j))))
    requests;
  let nfail = List.length !failures in
  let certified =
    List.mapi
      (fun i b ->
        List.iter
          (fun d -> check "rebuild reproduces the spanner edge set" (d = b.edges_digest))
          digests.(i);
        let stretch =
          certify_network b ~store_file:(store_file store b.digest)
            ~tmp:(Filename.concat work "resave.artifact")
        in
        (b, stretch))
      nets
  in
  certify_cache store requests.(0) sz.certify_sample;
  Printf.printf "%s: checks in %.2fs\n%!" cfg.workload (now () -. t_checks);
  if List.length !failures > nfail then failed := !attempted;
  let all = List.concat (Array.to_list measured) in
  let nb = List.length all in
  (* Per batch, a summary of its repeats' (value, host scale) samples. *)
  let per_batch summary f =
    Array.to_list (Array.map (fun os -> summary (List.map (fun (o, k) -> (f o, k)) os)) measured)
  in
  let scaled_mean xs = mean (List.map (fun (t, k) -> t *. k) xs) in
  let wall_mean xs = mean (List.map fst xs) in
  (* qps: one pass over the k batches, each at its median wall. p99: a
     1k-request batch's p99 rests on its 10 slowest queries, which a
     stop-the-world minor GC may or may not hit, so repeats of one batch
     flip between two levels and their mean is steadier than their
     median; then the mean over batches. *)
  let qps_p99 mid avg =
    let pass_s = List.fold_left ( +. ) 0.0 (per_batch mid (fun o -> o.Fleet.wall_s)) in
    (float_of_int (k * count) /. pass_s, mean (per_batch avg (fun o -> o.Fleet.latency.Serve.p99_us)))
  in
  if not cfg.trace then begin
    put "setup_s" "s" setups setup_s;
    put_network_metrics ~build_s:(per_net scaled_median build_times)
      ~builds:(count_samples build_times) certified;
    let qps, p99 = qps_p99 scaled_median scaled_mean in
    put "qps" "1/s" nb qps;
    put "p99_us" "us" nb p99;
    let wall_qps, wall_p99 = qps_p99 wall_median wall_mean in
    unscaled :=
      [ ("build_s", per_net wall_median build_times); ("qps", wall_qps); ("p99_us", wall_p99) ]
      @ !unscaled
  end
  else begin
    tracing := true;
    let worst = put_build_layers () in
    put_network_layers nets;
    put_standalone_layers cfg ~hub_sssp:false (List.hd nets).g;
    let residual = serve_layers store requests.(0) in
    put_batch_layers (List.map fst all);
    put "attrib.residual_share" "ratio" 1 (Float.max worst residual);
    let overhead =
      List.filter_map
        (fun j ->
          let wall l = scaled_median (List.map (fun (o, k) -> (o.Fleet.wall_s, k)) l) in
          match (measured.(j), untraced.(j)) with
          | [], _ | _, [] -> None
          | t, u -> Some (ratio (wall t -. wall u) (wall u)))
        (List.init k Fun.id)
    in
    put "trace.overhead_share" "ratio" nb (mean overhead);
    tracing := false
  end;
  rm_rf work;
  { attempted = !attempted; failed = !failed }

(* ---------- output ---------- *)

(* Host CPU ticks (all, stolen by the hypervisor) from /proc/stat, so
   the host stamp can say how much of the run the host took away. *)
let cpu_ticks () =
  try
    match In_channel.with_open_text "/proc/stat" In_channel.input_line with
    | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
        let ticks = List.map int_of_string fields in
        (List.fold_left ( + ) 0 ticks, if List.length ticks > 7 then List.nth ticks 7 else 0)
      | _ -> (0, 0))
    | None -> (0, 0)
  with Sys_error _ | Failure _ -> (0, 0)

let ticks_at_start = cpu_ticks ()

let steal_share () =
  let total, steal = cpu_ticks () and total0, steal0 = ticks_at_start in
  ratio (float_of_int (steal - steal0)) (float_of_int (total - total0))

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let host_json cfg =
  let commit = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT") in
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"smoke\":%b,\"cores\":%d,\"domains\":%d,\"ocaml\":%s,\"peak_rss_kb\":%d,\"steal_share\":%.4f,\"commit\":%s}"
    (json_string cfg.workload) cfg.seed (json_number cfg.seconds) cfg.trace (cfg.sz == smoke)
    (Bench_env.cores ()) (fleet_domains cfg.workload) (json_string Bench_env.ocaml_version) (Bench_env.peak_rss_kb ())
    (steal_share ()) (json_string commit)

let write_trace cfg host =
  let path =
    Filename.concat root_dir
      (Printf.sprintf "trace-%s-seed%d.json" cfg.workload cfg.seed)
  in
  let t_base = List.fold_left (fun a s -> Float.min a s.t0) infinity !spans in
  let span_json s =
    Printf.sprintf
      "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_s\":%.6f,\"dur_s\":%.6f,\"engine_s\":%.6f,\"messages\":%d}"
      s.id s.parent (json_string s.name) (s.t0 -. t_base) (dur s) s.eng.Engine.wall
      s.eng.Engine.messages
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"host\":%s,\"spans\":[\n%s\n]}\n" host
        (String.concat ",\n" (List.rev_map span_json !spans)));
  Printf.printf "trace: %d spans written to %s\n" (List.length !spans) path

let () =
  let cfg = parse_args () in
  if not (Sys.file_exists root_dir) then Unix.mkdir root_dir 0o755;
  let sz = cfg.sz in
  let { attempted; failed } =
    match cfg.workload with
    | "build-geo" -> run_build cfg ~geo:true
    | "spanner-heavy" -> run_build cfg ~geo:false
    | "serve-hot" -> run_serve cfg ~capacity:sz.hot_capacity ~k:sz.hot_batches ~count:sz.hot_requests
    | _ -> run_serve cfg ~capacity:sz.churn_capacity ~k:sz.churn_batches ~count:sz.churn_requests
  in
  let failed_frac = ratio (float_of_int failed) (float_of_int attempted) in
  if cfg.trace then begin
    put "failed_frac" "ratio" attempted failed_frac;
    put "host.probe_ms" "ms" (List.length !probes) (1e3 *. median !probes)
  end
  else put "peak_rss_mb" "MB" 1 (float_of_int (Bench_env.peak_rss_kb ()) /. 1024.0);
  let ms = List.rev !metrics in
  List.iter
    (fun (m : metric) -> check (m.name ^ " is finite") (Float.is_finite m.value))
    ms;
  let correct = !failures = [] && failed = 0 in
  Printf.printf "%-28s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (m : metric) -> Printf.printf "%-28s %16.6g %-8s %d\n" m.name m.value m.unit m.samples)
    ms;
  Printf.printf "attempted %d, failed %d (failed_frac %g), correct %b\n" attempted failed
    failed_frac correct;
  Printf.printf "times above are scaled to a %.0f ms probe; this run's probe median %.2f ms, unscaled:%s\n"
    (1e3 *. probe_ref_s) (1e3 *. median !probes)
    (String.concat "" (List.map (fun (n, v) -> Printf.sprintf " %s %.6g" n v) !unscaled));
  let host = host_json cfg in
  Printf.printf "host %s\n" host;
  if cfg.trace then write_trace cfg host;
  let metric_json (m : metric) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.name)
      (json_number (if Float.is_finite m.value then m.value else 0.0))
      (json_string m.unit)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat "," (List.map metric_json ms))
