module Plan = Mqr_opt.Plan

type t = { budget : int }

let create ~budget_pages =
  if budget_pages < 1 then invalid_arg "Memory_manager.create";
  { budget = budget_pages }

let budget_pages t = t.budget

let consumers_in_order plan =
  let rec post acc (p : Plan.t) =
    let acc = List.fold_left post acc (Plan.children p) in
    if Plan.is_memory_consumer p then p :: acc else acc
  in
  List.rev (post [] plan)

let plan_demand plan =
  let consumers = consumers_in_order plan in
  let mn =
    List.fold_left (fun a (p : Plan.t) -> a + max 1 p.Plan.min_mem) 0 consumers
  in
  let mx =
    List.fold_left (fun a (p : Plan.t) -> a + max 1 p.Plan.max_mem) 0 consumers
  in
  (mn, max mn mx)

type grant = {
  node_id : int;
  op : string;
  min_pages : int;
  max_pages : int;
  granted : int;
}

let allocate t plan =
  (* First pass: max if the rest can still get their minimums, else min. *)
  let rec first_pass remaining = function
    | [] -> []
    | (p : Plan.t) :: rest ->
      let min_rest =
        List.fold_left (fun acc (q : Plan.t) -> acc + q.Plan.min_mem) 0 rest
      in
      let grant =
        if p.Plan.max_mem + min_rest <= remaining then p.Plan.max_mem
        else min p.Plan.min_mem remaining
      in
      (p, grant) :: first_pass (remaining - grant) rest
  in
  let granted = first_pass t.budget (consumers_in_order plan) in
  let used = List.fold_left (fun acc (_, g) -> acc + g) 0 granted in
  (* Second pass: top up with leftovers in execution order. *)
  let leftover = ref (t.budget - used) in
  let granted =
    List.map
      (fun ((p : Plan.t), g) ->
         let extra = min !leftover (p.Plan.max_mem - g) in
         leftover := !leftover - extra;
         (p, g + extra))
      granted
  in
  List.map
    (fun ((p : Plan.t), g) ->
       let g = max 1 g in
       p.Plan.mem <- g;
       { node_id = p.Plan.id;
         op = Plan.op_name p;
         min_pages = p.Plan.min_mem;
         max_pages = p.Plan.max_mem;
         granted = g })
    granted

let pp_grant fmt g =
  Fmt.pf fmt "%s: granted %d pages (demand %d..%d)" g.op g.granted g.min_pages
    g.max_pages
