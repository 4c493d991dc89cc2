type kind =
  | Bit_flip
  | Truncate
  | Drop
  | Duplicate
  | Missing_field
  | Type_confusion
  | Clock_skew
  | Identity_conflict

let all_kinds =
  [ Bit_flip; Truncate; Drop; Duplicate; Missing_field; Type_confusion;
    Clock_skew; Identity_conflict ]

let kind_to_string = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Missing_field -> "missing-field"
  | Type_confusion -> "type-confusion"
  | Clock_skew -> "clock-skew"
  | Identity_conflict -> "identity-conflict"

type severity = Transient | Permanent

(* Transport-induced damage (the sender's copy survives, a retry can
   see clean bytes) vs source-side poison (a retry re-reads the same
   wrong record). *)
let classify = function
  | Bit_flip | Truncate | Drop | Duplicate -> Transient
  | Missing_field | Type_confusion | Clock_skew | Identity_conflict -> Permanent
