type kind = Native | Charged
type entry = { label : string; kind : kind; rounds : int }

(* Entries live in a grow-doubling array in insertion order, with
   running per-kind totals. The previous representation (a reversed
   list re-reversed on every [merge] and [entries] call) made deeply
   nested sub-ledger composition quadratic. *)
type t = {
  mutable arr : entry array;
  mutable len : int;
  mutable native : int;
  mutable charged : int;
  mutable perf : Engine.perf option;
  mutable notes : (string * string) list; (* reversed *)
}

let dummy_entry = { label = ""; kind = Native; rounds = 0 }

let create () =
  { arr = [||]; len = 0; native = 0; charged = 0; perf = None; notes = [] }

let append t e =
  if t.len = Array.length t.arr then begin
    let arr = Array.make (max 16 (2 * t.len)) dummy_entry in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- e;
  t.len <- t.len + 1;
  match e.kind with
  | Native -> t.native <- t.native + e.rounds
  | Charged -> t.charged <- t.charged + e.rounds

let add t kind label rounds =
  if rounds < 0 then invalid_arg "Ledger: negative round count";
  append t { label; kind; rounds }

let native t ~label rounds = add t Native label rounds
let charged t ~label rounds = add t Charged label rounds

let note t ~label value = t.notes <- (label, value) :: t.notes
let notes t = List.rev t.notes

let merge t ~prefix other =
  for i = 0 to other.len - 1 do
    let e = other.arr.(i) in
    append t { e with label = prefix ^ "/" ^ e.label }
  done;
  List.iter
    (fun (l, v) -> note t ~label:(prefix ^ "/" ^ l) v)
    (notes other);
  match other.perf with
  | None -> ()
  | Some p -> (
    match t.perf with
    | None -> t.perf <- Some (Engine.copy_perf p)
    | Some q -> Engine.add_perf ~into:q p)

let entries t = Array.to_list (Array.sub t.arr 0 t.len)
let native_total t = t.native
let charged_total t = t.charged
let total t = t.native + t.charged

let attach_perf t p =
  match t.perf with
  | None -> t.perf <- Some (Engine.copy_perf p)
  | Some q -> Engine.add_perf ~into:q p

let perf t = t.perf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.len - 1 do
    let e = t.arr.(i) in
    Format.fprintf ppf "%-40s %8d %s@," e.label e.rounds
      (match e.kind with Native -> "native" | Charged -> "charged")
  done;
  Format.fprintf ppf "%-40s %8d@,%-40s %8d (of which charged %d)" "-- native total"
    (native_total t) "-- grand total" (total t) (charged_total t);
  (match t.perf with
  | None -> ()
  | Some p -> Format.fprintf ppf "@,%-40s %a" "-- engine perf" Engine.pp_perf p);
  List.iter
    (fun (l, v) -> Format.fprintf ppf "@,%-40s %s" ("-- " ^ l) v)
    (notes t);
  Format.fprintf ppf "@]"
