module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths

let build g ~radius =
  if radius <= 0.0 then invalid_arg "Greedy_net.build: radius must be positive";
  let n = Graph.n g in
  let covered = Array.make n false in
  let picked = ref [] in
  for v = 0 to n - 1 do
    if not covered.(v) then begin
      picked := v :: !picked;
      let dist = Paths.distances ~bound:radius g v in
      Array.iteri (fun u d -> if d <= radius then covered.(u) <- true) dist
    end
  done;
  List.rev !picked
