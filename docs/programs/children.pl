% All-solutions predicates, with Prolog's answers.  children1 groups the
% kids by parent: with X unbound it gives one list per father, in the
% order the facts first name them, and a parent with no children has no
% answer, as bagof then fails.  children2 quantifies X away with ^ and
% collects every kid; children3 also sorts them and removes duplicates.
% A --query prints its first answer.
%
%   ozk run children.pl --query 'children1(haran, Kids)'  -> [[milcah yiscah]]
%   ozk run children.pl --query 'children2(Kids)'
%   ozk run children.pl --query 'children3(Kids)'
%   ozk run children.pl --query 'children1(X, Kids)'  -> [q(terach [abraham])]
%   ozk run children.pl --query 'children1(isaac, K)'  -> nil

father(terach, abraham).
father(abraham, isaac).
father(haran, milcah).
father(haran, yiscah).

children1(X, Kids) :- bagof(K, father(X, K), Kids).
children2(Kids) :- bagof(K, X^father(X, K), Kids).
children3(Kids) :- setof(K, X^father(X, K), Kids).
