type node_id = int

type t = { id : int; origin : node_id; seq : int; created_at : float }

let compare a b = Int.compare a.id b.id

let equal a b = a.id = b.id

type allocator = {
  mutable next_id : int;
  per_origin : (node_id, int) Hashtbl.t;
}

let allocator () = { next_id = 0; per_origin = Hashtbl.create 64 }

let fresh alloc ~origin ~now =
  let seq = Option.value ~default:0 (Hashtbl.find_opt alloc.per_origin origin) in
  Hashtbl.replace alloc.per_origin origin (seq + 1);
  let id = alloc.next_id in
  alloc.next_id <- id + 1;
  { id; origin; seq; created_at = now }

let count alloc = alloc.next_id
