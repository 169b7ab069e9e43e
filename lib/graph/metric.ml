let ball g ~center ~radius =
  let dist = Paths.distances ~bound:radius g center in
  let acc = ref [] in
  Array.iteri (fun v d -> if d <= radius then acc := v :: !acc) dist;
  List.rev !acc

let estimate_ddim ?(samples = 16) rng g =
  let n = Graph.n g in
  if n <= 1 then 0.0
  else begin
    let best = ref 0.0 in
    for _ = 1 to samples do
      let v = Random.State.int rng n in
      let finite =
        Array.to_list (Paths.distances g v) |> List.filter (fun d -> d < infinity)
      in
      let dmax = List.fold_left Float.max 0.0 finite in
      if dmax > 0.0 then begin
        let r = Random.State.float rng (dmax /. 2.0) in
        let r = Float.max r (dmax /. 64.0) in
        let count b = List.length (List.filter (fun d -> d <= b) finite) in
        let big = count (2.0 *. r) and small = count r in
        if small > 0 && big > small then begin
          let est = Float.log (float_of_int big /. float_of_int small) /. Float.log 2.0 in
          if est > !best then best := est
        end
      end
    done;
    !best
  end

let separation g pts =
  match pts with
  | [] | [ _ ] -> infinity
  | _ ->
    let arr = Array.of_list pts in
    let best = ref infinity in
    Array.iter
      (fun p ->
        let dist = Paths.distances g p in
        Array.iter
          (fun q -> if q <> p && dist.(q) < !best then best := dist.(q))
          arr)
      arr;
    !best

let covering_radius g pts =
  match pts with
  | [] -> if Graph.n g = 0 then 0.0 else infinity
  | _ ->
    let sp, _ = Paths.dijkstra_multi g pts in
    Array.fold_left Float.max 0.0 sp.dist
