module geoloc/benchmark

go 1.22

require geoloc v0.0.0

replace geoloc => ../
