type node =
  | Leaf of leaf
  | Internal of internal

and leaf = {
  lid : int;
  mutable keys : Value.t array;
  mutable vals : int list array;
  mutable next : leaf option;
}

and internal = {
  iid : int;
  mutable seps : Value.t array;   (* seps.(i) = smallest key under children.(i+1) *)
  mutable children : node array;
}

type t = {
  id : int;
  fanout : int;
  mutable root : node;
  mutable entries : int;
  mutable distinct : int;
  mutable next_node_id : int;
}

let next_file_id = ref 1_000_000

let fresh_file_id () =
  incr next_file_id;
  !next_file_id

let create ?(fanout = 64) () =
  if fanout < 4 then invalid_arg "Btree.create: fanout < 4";
  let leaf = { lid = 0; keys = [||]; vals = [||]; next = None } in
  { id = fresh_file_id (); fanout; root = Leaf leaf; entries = 0; distinct = 0;
    next_node_id = 1 }

let entry_count t = t.entries
let key_count t = t.distinct

let fresh_node_id t =
  let id = t.next_node_id in
  t.next_node_id <- id + 1;
  id

let rec height_of = function
  | Leaf _ -> 1
  | Internal n -> 1 + height_of n.children.(0)

let height t = height_of t.root

(* Index of the first element of [a] strictly greater than [key], i.e. the
   number of elements <= key. *)
let upper_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare a.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first element >= key. *)
let lower_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare a.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* Result of inserting below: either done in place, or the node split and
   the new right sibling (with its separator key) must be added above. *)
type split = No_split | Split of Value.t * node

let split_leaf t lf =
  let n = Array.length lf.keys in
  let mid = n / 2 in
  let right =
    { lid = fresh_node_id t;
      keys = Array.sub lf.keys mid (n - mid);
      vals = Array.sub lf.vals mid (n - mid);
      next = lf.next }
  in
  lf.keys <- Array.sub lf.keys 0 mid;
  lf.vals <- Array.sub lf.vals 0 mid;
  lf.next <- Some right;
  Split (right.keys.(0), Leaf right)

let split_internal t nd =
  let n = Array.length nd.children in
  let mid = n / 2 in
  (* children mid..n-1 move right; separator between halves is seps.(mid-1) *)
  let sep = nd.seps.(mid - 1) in
  let right =
    { iid = fresh_node_id t;
      seps = Array.sub nd.seps mid (Array.length nd.seps - mid);
      children = Array.sub nd.children mid (n - mid) }
  in
  nd.seps <- Array.sub nd.seps 0 (mid - 1);
  nd.children <- Array.sub nd.children 0 mid;
  Split (sep, Internal right)

let rec insert_into t node key rid =
  match node with
  | Leaf lf ->
    let pos = lower_bound lf.keys key in
    if pos < Array.length lf.keys && Value.equal lf.keys.(pos) key then begin
      lf.vals.(pos) <- rid :: lf.vals.(pos);
      t.entries <- t.entries + 1;
      No_split
    end else begin
      lf.keys <- array_insert lf.keys pos key;
      lf.vals <- array_insert lf.vals pos [ rid ];
      t.entries <- t.entries + 1;
      t.distinct <- t.distinct + 1;
      if Array.length lf.keys > t.fanout then split_leaf t lf else No_split
    end
  | Internal nd ->
    let pos = upper_bound nd.seps key in
    (match insert_into t nd.children.(pos) key rid with
     | No_split -> No_split
     | Split (sep, right) ->
       nd.seps <- array_insert nd.seps pos sep;
       nd.children <- array_insert nd.children (pos + 1) right;
       if Array.length nd.children > t.fanout then split_internal t nd
       else No_split)

let insert t key rid =
  if Value.is_null key then invalid_arg "Btree.insert: Null key";
  match insert_into t t.root key rid with
  | No_split -> ()
  | Split (sep, right) ->
    let root =
      { iid = fresh_node_id t; seps = [| sep |]; children = [| t.root; right |] }
    in
    t.root <- Internal root

let rec find_leaf node key =
  match node with
  | Leaf lf -> lf
  | Internal nd -> find_leaf nd.children.(upper_bound nd.seps key) key

let lookup t key =
  let lf = find_leaf t.root key in
  let pos = lower_bound lf.keys key in
  if pos < Array.length lf.keys && Value.equal lf.keys.(pos) key then
    lf.vals.(pos)
  else []

let touch_page t ~pool ~clock page =
  if not (Buffer_pool.access pool ~file:t.id ~page) then
    Sim_clock.charge_rand_read clock 1

let probe t ~pool ~clock ?lo ?hi () =
  (* Root-to-leaf descent. *)
  let rec descend node =
    match node with
    | Leaf lf ->
      touch_page t ~pool ~clock lf.lid;
      lf
    | Internal nd ->
      touch_page t ~pool ~clock nd.iid;
      let pos = match lo with Some k -> upper_bound nd.seps k | None -> 0 in
      descend nd.children.(pos)
  in
  let start = descend t.root in
  (* each matching key's rid list, the last key's first *)
  let found = ref [] in
  let rec walk lf first =
    if not first then touch_page t ~pool ~clock lf.lid;
    let n = Array.length lf.keys in
    let start_pos = match lo with Some k -> lower_bound lf.keys k | None -> 0 in
    let i = ref start_pos and past_hi = ref false in
    while (not !past_hi) && !i < n do
      match hi with
      | Some h when Value.compare lf.keys.(!i) h > 0 -> past_hi := true
      | _ ->
        found := lf.vals.(!i) :: !found;
        incr i
    done;
    Sim_clock.charge_cpu_tuples clock (max 1 (n - start_pos));
    if not !past_hi then
      match lf.next with Some nxt -> walk nxt false | None -> ()
  in
  walk start true;
  (* a single key's list is returned as it is stored *)
  List.fold_left
    (fun acc rids -> match acc with [] -> rids | _ -> rids @ acc)
    [] !found

let check t =
  let ( let* ) r f = Result.bind r f in
  let rec check_sorted a i =
    if i + 1 >= Array.length a then Ok ()
    else if Value.compare a.(i) a.(i + 1) >= 0 then Error "unsorted keys"
    else check_sorted a (i + 1)
  in
  let rec go node ~is_root =
    match node with
    | Leaf lf ->
      let* () = check_sorted lf.keys 0 in
      if Array.length lf.keys > t.fanout then Error "leaf overflow" else Ok 1
    | Internal nd ->
      let nc = Array.length nd.children in
      if nc < 2 then Error "internal underflow"
      else if nc > t.fanout then Error "internal overflow"
      else if Array.length nd.seps <> nc - 1 then Error "sep/child mismatch"
      else
        let* () = check_sorted nd.seps 0 in
        let rec depths i acc =
          if i >= nc then Ok acc
          else
            let* h = go nd.children.(i) ~is_root:false in
            match acc with
            | Some h0 when h0 <> h -> Error "unbalanced"
            | _ -> depths (i + 1) (Some h)
        in
        let* d = depths 0 None in
        ignore is_root;
        (match d with Some h -> Ok (h + 1) | None -> Error "no children")
  in
  Result.map (fun (_ : int) -> ()) (go t.root ~is_root:true)
