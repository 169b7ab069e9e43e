type sssp = { dist : float array; parent_edge : int array }

(* Per-domain heap scratch: one [Pqueue.t] per domain, cleared on
   entry, so a steady-state call allocates no heap storage, only the
   arrays it returns (and, in an [-opaque] build, the short-lived boxed
   floats passed to and from [Pqueue]).
   [busy] catches a call made from inside another call's [edge_ok],
   which would otherwise clear the outer search's heap; that nested
   call gets a private heap instead. *)
type scratch = { heap : Pqueue.t; mutable busy : bool }

let scratch_key =
  Domain.DLS.new_key (fun () -> { heap = Pqueue.create (); busy = false })

(* Settle outward from [seeds] into [dist] (all [infinity] on entry).
   [parent_edge] and [source] are written only when non-empty, so the
   distance-only entry point passes [||] for both.

   There is no settled set: a vertex's first pop carries [dist.(v)]
   exactly (pushes only ever lower it), later pops carry more and are
   skipped by [d > dist.(v)]. With strictly positive weights a settled
   [u] has [dist.(u) <= d < d + w], so [nd < dist.(u)] alone never
   relaxes it — the pushes, hence the pop order and every tie-break,
   are those of a settled-set Dijkstra. A duplicate seed pops twice at
   0 and is expanded twice; the second pass relaxes nothing. *)
let rec push_seeds q dist source multi = function
  | [] -> ()
  | s :: rest ->
    dist.(s) <- 0.0;
    if multi then source.(s) <- s;
    Pqueue.push q 0.0 s;
    push_seeds q dist source multi rest

let search ~bound ~edge_ok g seeds q dist parent_edge source =
  let { Graph.off; adj_eid; adj_dst; ew; _ } = Graph.view g in
  let tree = Array.length parent_edge > 0 and multi = Array.length source > 0 in
  push_seeds q dist source multi seeds;
  while not (Pqueue.is_empty q) do
    let d = Pqueue.min_prio q in
    let v = Pqueue.pop_min q in
    if d <= dist.(v) && d <= bound then begin
      let hi = off.(v + 1) - 1 in
      match edge_ok with
      | None ->
        (* Unfiltered hot path: walk the CSR columns directly — no
           closure, no per-edge [Graph.weight] call. *)
        for i = off.(v) to hi do
          let u = adj_dst.(i) in
          let id = adj_eid.(i) in
          let nd = d +. ew.(id) in
          if nd < dist.(u) && nd <= bound then begin
            dist.(u) <- nd;
            if tree then parent_edge.(u) <- id;
            if multi then source.(u) <- source.(v);
            Pqueue.push q nd u
          end
        done
      | Some ok ->
        for i = off.(v) to hi do
          let id = adj_eid.(i) in
          if ok id then begin
            let u = adj_dst.(i) in
            let nd = d +. ew.(id) in
            if nd < dist.(u) && nd <= bound then begin
              dist.(u) <- nd;
              if tree then parent_edge.(u) <- id;
              if multi then source.(u) <- source.(v);
              Pqueue.push q nd u
            end
          end
        done
    end
  done

let dijkstra_core ?(bound = infinity) ?edge_ok g seeds dist parent_edge source =
  let s = Domain.DLS.get scratch_key in
  if s.busy then
    search ~bound ~edge_ok g seeds (Pqueue.create ()) dist parent_edge source
  else begin
    s.busy <- true;
    Pqueue.clear s.heap;
    match search ~bound ~edge_ok g seeds s.heap dist parent_edge source with
    | () -> s.busy <- false
    | exception e ->
      s.busy <- false;
      raise e
  end

let distances ?bound ?edge_ok g src =
  let dist = Array.make (Graph.n g) infinity in
  dijkstra_core ?bound ?edge_ok g [ src ] dist [||] [||];
  dist

let dijkstra ?bound ?edge_ok g src =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent_edge = Array.make n (-1) in
  dijkstra_core ?bound ?edge_ok g [ src ] dist parent_edge [||];
  { dist; parent_edge }

let dijkstra_multi ?bound ?edge_ok g srcs =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent_edge = Array.make n (-1) in
  let source = Array.make n (-1) in
  dijkstra_core ?bound ?edge_ok g srcs dist parent_edge source;
  ({ dist; parent_edge }, source)

let distance ?edge_ok g u v = (distances ?edge_ok g u).(v)

let path_to r g v =
  if r.dist.(v) = infinity then None
  else begin
    let rec walk v acc =
      let id = r.parent_edge.(v) in
      if id < 0 then v :: acc else walk (Graph.other_end g id v) (v :: acc)
    in
    Some (walk v [])
  end

let bfs_hops g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let { Graph.off; adj_dst; _ } = Graph.view g in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let dv = dist.(v) + 1 in
    for i = off.(v) to off.(v + 1) - 1 do
      let u = adj_dst.(i) in
      if dist.(u) < 0 then begin
        dist.(u) <- dv;
        Queue.push u q
      end
    done
  done;
  dist

let eccentricity_hops g v =
  Array.fold_left (fun acc d -> max acc d) 0 (bfs_hops g v)

let all_pairs ?edge_ok g =
  Array.init (Graph.n g) (fun v -> distances ?edge_ok g v)
