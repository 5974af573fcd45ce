"""Library procedures written in the language itself.

Loaded into every session's global environment before user code runs.
"""

PRELUDE = """
proc {Append As Bs Cs}
   case As of nil then Cs=Bs
   [] A|Ar then Cr in Cs=A|Cr {Append Ar Bs Cr} end
end

fun {Map Xs F}
   case Xs of nil then nil
   [] X|Xr then {F X}|{Map Xr F} end
end

fun {Filter Xs P}
   case Xs of nil then nil
   [] X|Xr then
      if {P X} then X|{Filter Xr P} else {Filter Xr P} end
   end
end

fun {Take Xs N}
   if N==0 then nil
   else
      case Xs of nil then nil
      [] X|Xr then X|{Take Xr N-1} end
   end
end

fun {Length Xs}
   fun {Count Xs N}
      case Xs of nil then N
      [] _|Xr then {Count Xr N+1} end
   end
in
   {Count Xs 0}
end

proc {WaitList Xs}
   case Xs of nil then skip
   [] _|Xr then {WaitList Xr} end
end

fun {Nth Xs N}
   case Xs of X|Xr then
      if N==1 then X else {Nth Xr N-1} end
   end
end
"""

PRELUDE_NAMES = ("Append", "Map", "Filter", "Take", "Length", "WaitList",
                 "Nth")
