function y = axpy(a, x, b)
% Scaled add: one fused elementwise expression.
y = a .* x + b;

function s = sumsq(x)
% Sum of squares: two reductions over an elementwise product.
s = sum(sum(x .* x));

function z = poly2(x)
% The function the stream redefines (the constant term toggles).
z = 3 * x .* x - 2 * x + 1;

function w = combo(x, k)
% Calls two other user functions of the stream.
w = axpy(k, x, 1) + sumsq(x);

function n = count(x, t)
% Logical result: elements whose magnitude exceeds a threshold.
n = sum(sum(abs(x) > t));
