type t = {
  mutable counts : int array;
  mutable n_ids : int;
  mutable total : int;
  mutable unexpired : int;
}

let create ?(n_ids = 0) () =
  { counts = Array.make (Stdlib.max 1 n_ids) 0; n_ids; total = 0; unexpired = 0 }

let grow t need =
  let cap = Array.length t.counts in
  if need > cap then begin
    let cap' = ref cap in
    while need > !cap' do
      cap' := 2 * !cap'
    done;
    let counts = Array.make !cap' 0 in
    Array.blit t.counts 0 counts 0 t.n_ids;
    t.counts <- counts
  end

let append t ~anchor ~expired =
  t.total <- t.total + 1;
  if not expired then begin
    t.unexpired <- t.unexpired + 1;
    if anchor >= 0 then begin
      grow t (anchor + 1);
      if anchor >= t.n_ids then t.n_ids <- anchor + 1;
      t.counts.(anchor) <- t.counts.(anchor) + 1
    end
  end

let count t id = if id >= 0 && id < t.n_ids then t.counts.(id) else 0

let validated_by t set =
  let acc = ref 0 in
  for id = 0 to t.n_ids - 1 do
    if t.counts.(id) > 0 && Id_set.mem set id then acc := !acc + t.counts.(id)
  done;
  !acc

let n_ids t = t.n_ids
let counts t = Array.sub t.counts 0 t.n_ids
let total t = t.total
let unexpired t = t.unexpired
