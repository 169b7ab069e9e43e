type t = {
  mutable prio : float array; (* unboxed float column *)
  mutable data : int array;
  mutable len : int;
}

let create () = { prio = Array.make 16 infinity; data = Array.make 16 0; len = 0 }

let clear q = q.len <- 0
let is_empty q = q.len = 0
let length q = q.len

let grow q =
  let cap = Array.length q.prio in
  let prio = Array.make (2 * cap) infinity in
  let data = Array.make (2 * cap) 0 in
  Array.blit q.prio 0 prio 0 q.len;
  Array.blit q.data 0 data 0 q.len;
  q.prio <- prio;
  q.data <- data

(* Both sifts move a hole instead of swapping, but make exactly the
   comparisons a swap-based sift makes (strict [<]; on a sift down the
   parent wins ties, then the left child), so the heap shape after any
   push/pop sequence — and with it the pop order of equal priorities —
   is the swap-based one.

   [push], [min_prio] and [pop_min] are [@inline]: a float crossing a
   call boundary is boxed, and inlining keeps the priority unboxed from
   the caller's arithmetic to the column. Builds with [-opaque] (dune's
   dev profile) inline nothing across modules, so there each call
   boxes its float; the heap itself still allocates nothing. *)
let[@inline] push q p v =
  if q.len = Array.length q.prio then grow q;
  let prio = q.prio and data = q.data in
  let i = ref q.len in
  q.len <- q.len + 1;
  while !i > 0 && p < prio.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    prio.(!i) <- prio.(parent);
    data.(!i) <- data.(parent);
    i := parent
  done;
  prio.(!i) <- p;
  data.(!i) <- v

let[@inline] min_prio q =
  if q.len = 0 then raise Not_found;
  q.prio.(0)

let[@inline] pop_min q =
  if q.len = 0 then raise Not_found;
  let prio = q.prio and data = q.data in
  let top = data.(0) in
  let len = q.len - 1 in
  q.len <- len;
  if len > 0 then begin
    (* Sift the last item down from the root. *)
    let p = prio.(len) and v = data.(len) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let s = if l < len && prio.(l) < p then l else !i in
      let r = l + 1 in
      let s = if r < len && prio.(r) < (if s = !i then p else prio.(s)) then r else s in
      if s = !i then moving := false
      else begin
        prio.(!i) <- prio.(s);
        data.(!i) <- data.(s);
        i := s
      end
    done;
    prio.(!i) <- p;
    data.(!i) <- v
  end;
  top
